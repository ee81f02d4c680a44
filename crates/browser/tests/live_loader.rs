//! Unit-level coverage for the live (wall-clock) page loader, over
//! plain in-process duplex pipes — no link emulation, just protocol
//! correctness and state persistence.

#![cfg(feature = "aio")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cachecatalyst_browser::live::{ByteStream, Dialer, LiveBrowser, LiveMode};
use cachecatalyst_browser::{Browser, SingleOrigin};
use cachecatalyst_catalyst::tamper_config_headers;
use cachecatalyst_httpwire::{Request, Response, Url};
use cachecatalyst_netsim::{FetchOutcome, LoadTrace, NetworkConditions};
use cachecatalyst_origin::{
    fixed_clock, serve_connection, Clock, Handler, OriginServer, TcpOrigin,
};
use cachecatalyst_webmodel::example_site;

fn instant_dialer(origin: Arc<OriginServer>, t_secs: i64) -> Dialer {
    Arc::new(move |_host| {
        let origin = Arc::clone(&origin);
        Box::pin(async move {
            let (client_end, server_end) = tokio::io::duplex(64 * 1024);
            let opts = TcpOrigin::builder()
                .server(origin)
                .clock(fixed_clock(t_secs));
            tokio::spawn(async move {
                let _ = opts.serve_stream(server_end).await;
            });
            Ok(Box::new(client_end) as Box<dyn ByteStream>)
        })
    })
}

fn base() -> Url {
    Url::parse("http://example.org/index.html").unwrap()
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn uncached_load_fetches_the_whole_tree() {
    let origin = Arc::new(OriginServer::new(
        example_site(),
        cachecatalyst_origin::HeaderMode::Baseline,
    ));
    let mut browser = LiveBrowser::new(instant_dialer(origin, 0), LiveMode::Uncached);
    let report = browser.load(&base()).await.unwrap();
    assert_eq!(report.trace.fetches.len(), 5, "{:#?}", report.trace);
    assert_eq!(report.network_requests, 5);
    assert!(report
        .trace
        .fetches
        .iter()
        .all(|f| f.outcome == FetchOutcome::FullTransfer));
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn baseline_live_browser_caches_across_loads() {
    let origin = Arc::new(OriginServer::new(
        example_site(),
        cachecatalyst_origin::HeaderMode::Baseline,
    ));
    let mut browser = LiveBrowser::new(instant_dialer(Arc::clone(&origin), 0), LiveMode::Baseline);
    browser.load(&base()).await.unwrap();

    // Revisit one minute later (server time unchanged ⇒ 304s for the
    // no-cache entries, fresh hits for the TTL'd ones).
    let mut browser = browser.with_dialer(instant_dialer(origin, 60));
    browser.now_secs = 60;
    let warm = browser.load(&base()).await.unwrap();
    assert!(warm.cache_hits > 0, "{warm:?}");
    assert!(warm.network_requests < 5);
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn catalyst_live_browser_reaches_sw_hits() {
    let origin = Arc::new(OriginServer::new(
        example_site(),
        cachecatalyst_origin::HeaderMode::Catalyst,
    ));
    let mut browser = LiveBrowser::new(instant_dialer(Arc::clone(&origin), 0), LiveMode::Catalyst);
    browser.load(&base()).await.unwrap();
    let mut browser = browser.with_dialer(instant_dialer(origin, 60));
    browser.now_secs = 60;
    let warm = browser.load(&base()).await.unwrap();
    assert!(warm.sw_hits >= 2, "{warm:?}");
    // Unchanged at +60 s: the navigation and the unmapped JS chain are
    // the only network round trips, all 304s.
    assert!(warm
        .trace
        .fetches
        .iter()
        .filter(|f| f.outcome.used_network())
        .all(|f| f.outcome == FetchOutcome::NotModified));
}

/// Serves the origin with the navigation's `X-Etag-Config` map damaged
/// in transit: one entry corrupted, the digest left describing the
/// original map.
struct TamperNavigation {
    origin: Arc<OriginServer>,
    tampered: AtomicBool,
}

impl Handler for TamperNavigation {
    fn handle(&self, req: &Request, clock: &Clock) -> Response {
        let mut resp = Handler::handle(&*self.origin, req, clock);
        if req.target.path() == "/index.html" && tamper_config_headers(&mut resp, Some(0x5eed)) {
            self.tampered.store(true, Ordering::SeqCst);
        }
        resp
    }

    fn ops(&self, _req: &Request, _clock: &Clock) -> Option<Response> {
        None
    }
}

fn handler_dialer<H: Handler>(handler: Arc<H>, t_secs: i64) -> Dialer {
    Arc::new(move |_host| {
        let handler = Arc::clone(&handler);
        Box::pin(async move {
            let (client_end, server_end) = tokio::io::duplex(64 * 1024);
            tokio::spawn(async move {
                let clock = fixed_clock(t_secs);
                let _ = serve_connection(&*handler, &clock, false, None, server_end).await;
            });
            Ok(Box::new(client_end) as Box<dyn ByteStream>)
        })
    })
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn live_catalyst_never_serves_from_a_tampered_map() {
    let origin = Arc::new(OriginServer::new(
        example_site(),
        cachecatalyst_origin::HeaderMode::Catalyst,
    ));
    let mut browser = LiveBrowser::new(instant_dialer(Arc::clone(&origin), 0), LiveMode::Catalyst);
    browser.load(&base()).await.unwrap();

    // Unchanged at +60 s, so a verified map would serve a.css and b.js
    // locally; this one fails its digest and must be stripped.
    let tamper = Arc::new(TamperNavigation {
        origin,
        tampered: AtomicBool::new(false),
    });
    let mut browser = browser.with_dialer(handler_dialer(Arc::clone(&tamper), 60));
    browser.now_secs = 60;
    let warm = browser.load(&base()).await.unwrap();
    assert!(tamper.tampered.load(Ordering::SeqCst), "no map was damaged");
    assert_eq!(warm.sw_hits, 0, "{warm:?}");
    assert!(
        warm.trace.fetches.iter().all(|f| f.outcome.used_network()),
        "{:#?}",
        warm.trace
    );
}

fn outcomes(trace: &LoadTrace) -> Vec<(String, FetchOutcome)> {
    let mut outcomes: Vec<_> = trace
        .fetches
        .iter()
        .map(|f| (f.url.clone(), f.outcome))
        .collect();
    outcomes.sort_by(|a, b| a.0.cmp(&b.0));
    outcomes
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn live_and_simulated_browsers_decide_every_fetch_alike() {
    use cachecatalyst_origin::HeaderMode;

    let modes = [
        (
            LiveMode::Baseline,
            HeaderMode::Baseline,
            Browser::baseline(),
        ),
        (
            LiveMode::Catalyst,
            HeaderMode::Catalyst,
            Browser::catalyst(),
        ),
        (
            LiveMode::Uncached,
            HeaderMode::Baseline,
            Browser::uncached(),
        ),
    ];
    for (mode, headers, mut sim) in modes {
        let sim_origin = SingleOrigin(Arc::new(OriginServer::new(example_site(), headers)));
        let live_origin = Arc::new(OriginServer::new(example_site(), headers));
        let mut live = LiveBrowser::new(instant_dialer(Arc::clone(&live_origin), 0), mode);
        // A cold visit, an unchanged revisit and the Figure 1 revisit.
        for t in [0, 60, 7200] {
            let expected = sim.load(&sim_origin, NetworkConditions::five_g_median(), &base(), t);
            live = live.with_dialer(instant_dialer(Arc::clone(&live_origin), t));
            live.now_secs = t;
            let got = live.load(&base()).await.unwrap();
            assert_eq!(
                outcomes(&got.trace),
                outcomes(&expected.trace),
                "{mode:?} at t={t}"
            );
        }
    }
}
