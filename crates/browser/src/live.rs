//! Live page loads over real byte streams (feature `aio`).
//!
//! The same browser semantics as the discrete-event engine — per-host
//! connection pools of six, parse-driven discovery, JS-executed
//! fetches, HTTP-cache or service-worker serving — but executed in
//! wall-clock time over any tokio transport: loopback TCP, the
//! emulated access link from `cachecatalyst_netsim::emu`, or anything
//! a [`Dialer`] produces. Used by the end-to-end tests and by the
//! sim-vs-live cross-validation experiment (E15): the simulator's PLT
//! prediction is checked against an actual protocol execution.

use std::collections::{HashMap, HashSet};
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cachecatalyst_catalyst::ServiceWorker;
use cachecatalyst_httpcache::HttpCache;
use cachecatalyst_httpwire::aio::ClientConn;
use cachecatalyst_httpwire::{HeaderName, Request, Url};
use cachecatalyst_netsim::{FetchOutcome, FetchTrace, LoadTrace, SimTime};
use cachecatalyst_telemetry::Recorder;
use cachecatalyst_webmodel::ResourceKind;
use tokio::io::{AsyncRead, AsyncWrite};
use tokio::sync::{Mutex, Semaphore};
use tokio::task::JoinSet;

use crate::browser::LoadEvents;
pub use crate::planner::LiveMode;
use crate::planner::{Decision, FetchPlanner};

/// Anything a connection can run over.
pub trait ByteStream: AsyncRead + AsyncWrite + Unpin + Send {}
impl<T: AsyncRead + AsyncWrite + Unpin + Send> ByteStream for T {}

/// Opens a byte stream to `host`. Implementations decide what that
/// means: TCP dial, an emulated link to an in-process origin, …
pub type Dialer = Arc<
    dyn Fn(String) -> Pin<Box<dyn Future<Output = std::io::Result<Box<dyn ByteStream>>> + Send>>
        + Send
        + Sync,
>;

/// The result of one live page load.
#[derive(Debug, Clone)]
pub struct LiveReport {
    pub trace: LoadTrace,
    pub plt: Duration,
    pub network_requests: usize,
    pub sw_hits: usize,
    pub cache_hits: usize,
    /// Round trips that failed (I/O error or timeout) and were retried.
    pub retries: u32,
}

/// The state the [`FetchPlanner`] decides against. Fetch tasks lock it
/// only around the planner's synchronous steps, never across an
/// `.await`. Live loads never serve stale-while-revalidate.
struct Caches {
    cache: HttpCache,
    sw: ServiceWorker,
}

impl Caches {
    fn planner(&mut self, mode: LiveMode, now_secs: i64) -> FetchPlanner<'_> {
        FetchPlanner::new(&mut self.cache, &mut self.sw, mode, now_secs, false)
    }
}

/// A live browser profile. State persists across loads, like
/// [`crate::Browser`].
pub struct LiveBrowser {
    dialer: Dialer,
    mode: LiveMode,
    caches: Arc<std::sync::Mutex<Caches>>,
    pools: Arc<Mutex<HashMap<String, Arc<HostPool>>>>,
    recorder: Option<Arc<dyn Recorder>>,
    /// Virtual seconds used for cache freshness decisions.
    pub now_secs: i64,
    /// Parse/exec pacing, matching the simulator's defaults.
    pub parse_base: Duration,
    pub exec_base: Duration,
    /// Per-round-trip deadline; a server that stalls past it costs
    /// one retry instead of hanging the page load.
    pub fetch_timeout: Duration,
    /// Failed round trips are redialed at most this many times.
    pub max_retries: u32,
    /// First backoff step; doubles per attempt.
    pub retry_base: Duration,
}

struct HostPool {
    permits: Semaphore,
    idle: Mutex<Vec<ClientConn<Box<dyn ByteStream>>>>,
}

impl LiveBrowser {
    pub fn new(dialer: Dialer, mode: LiveMode) -> LiveBrowser {
        LiveBrowser {
            dialer,
            mode,
            caches: Arc::new(std::sync::Mutex::new(Caches {
                cache: HttpCache::unbounded(),
                sw: ServiceWorker::new(),
            })),
            pools: Arc::new(Mutex::new(HashMap::new())),
            recorder: None,
            now_secs: 0,
            parse_base: Duration::from_millis(1),
            exec_base: Duration::from_millis(2),
            fetch_timeout: Duration::from_secs(3),
            max_retries: 3,
            retry_base: Duration::from_millis(25),
        }
    }

    /// Replaces the dialer (e.g. to reconnect with a different link or
    /// server clock), keeping cache and service-worker state but
    /// dropping pooled connections — idle sockets would not survive
    /// the pause between visits anyway.
    pub fn with_dialer(self, dialer: Dialer) -> LiveBrowser {
        LiveBrowser {
            dialer,
            pools: Arc::new(Mutex::new(HashMap::new())),
            ..self
        }
    }

    /// Applies the shared [`ClientOptions`](crate::ClientOptions):
    /// the recorder attaches (live loads then emit the same
    /// page-load/fetch event stream as the discrete-event browser,
    /// timestamped in wall milliseconds from `now_secs`), the retry
    /// knobs overlay their fields, and a dialer replaces the
    /// transport as [`LiveBrowser::with_dialer`] would. The span
    /// sink and fault plan are discrete-event concerns and are
    /// ignored here (faults live on the server side of a live run).
    pub fn with_options(mut self, opts: &crate::ClientOptions) -> LiveBrowser {
        if let Some(recorder) = &opts.recorder {
            self.recorder = Some(Arc::clone(recorder));
        }
        if let Some(retries) = opts.max_retries {
            self.max_retries = retries;
        }
        if let Some(base) = opts.retry_base {
            self.retry_base = base;
        }
        if let Some(timeout) = opts.fetch_timeout {
            self.fetch_timeout = timeout;
        }
        if let Some(dialer) = &opts.dialer {
            self = self.with_dialer(Arc::clone(dialer));
        }
        self
    }

    /// Loads `base_url` to completion, returning wall-clock timings.
    pub async fn load(&mut self, base_url: &Url) -> std::io::Result<LiveReport> {
        let t0 = Instant::now();
        let mut trace = LoadTrace::default();
        let mut requested = HashSet::new();
        let mut join: JoinSet<std::io::Result<FetchDone>> = JoinSet::new();

        requested.insert(base_url.to_string());
        join.spawn(self.fetch_task(base_url.clone(), true, t0));

        let mut retries = 0;
        while let Some(res) = join.join_next().await {
            let done = res.map_err(|e| std::io::Error::other(e.to_string()))??;
            retries += done.retries;
            trace.fetches.push(done.fetch);
            for link in done.links {
                if requested.insert(link.to_string()) {
                    join.spawn(self.fetch_task(link, false, t0));
                }
            }
        }

        let plt = trace.fetches.iter().map(|f| f.completed).max();
        let count = |o| trace.fetches.iter().filter(|f| f.outcome == o).count();
        let (sw_hits, cache_hits) = (
            count(FetchOutcome::ServiceWorkerHit),
            count(FetchOutcome::CacheHit),
        );
        let report = LiveReport {
            plt: Duration::from_nanos(plt.unwrap_or(SimTime::ZERO).as_nanos()),
            network_requests: trace.fetches.len() - sw_hits - cache_hits,
            trace,
            sw_hits,
            cache_hits,
            retries,
        };
        if let Some(recorder) = &self.recorder {
            // The live path observes no cache delta and no audits.
            LoadEvents {
                page: base_url,
                t_secs: self.now_secs,
                trace: &report.trace,
                plt_ms: report.plt.as_secs_f64() * 1000.0,
                audits: &[],
                delta: None,
                faults_injected: 0,
                retries: report.retries,
                degraded: 0,
            }
            .emit(recorder.as_ref());
        }
        Ok(report)
    }

    fn fetch_task(
        &self,
        url: Url,
        is_navigation: bool,
        t0: Instant,
    ) -> impl Future<Output = std::io::Result<FetchDone>> + Send + 'static {
        let dialer = Arc::clone(&self.dialer);
        let mode = self.mode;
        let caches = Arc::clone(&self.caches);
        let pools = Arc::clone(&self.pools);
        let now_secs = self.now_secs;
        let parse_base = self.parse_base;
        let exec_base = self.exec_base;
        let fetch_timeout = self.fetch_timeout;
        let max_retries = self.max_retries;
        let retry_base = self.retry_base;
        async move {
            let mut retries = 0u32;
            let discovered = t0.elapsed();
            let mut req = Request::get(&url.target().to_string())
                .with_header(HeaderName::HOST, &url.authority())
                .with_header(HeaderName::USER_AGENT, "cachecatalyst-live/0.1");

            let (decision, _) = caches
                .lock()
                .expect("planner state poisoned")
                .planner(mode, now_secs)
                .decide(&url, &mut req, is_navigation);
            let (delivered, outcome) = match decision {
                Decision::Local {
                    response, outcome, ..
                } => (response, outcome),
                Decision::ServeStale { .. } => {
                    unreachable!("live loads never serve stale-while-revalidate")
                }
                Decision::Network => {
                    // --- network fetch through the host pool ---
                    let pool = {
                        let mut pools = pools.lock().await;
                        Arc::clone(pools.entry(url.host().to_owned()).or_insert_with(|| {
                            Arc::new(HostPool {
                                permits: Semaphore::new(6),
                                idle: Mutex::new(Vec::new()),
                            })
                        }))
                    };
                    let _permit = pool.permits.acquire().await.expect("semaphore not closed");
                    // Bounded retry with exponential backoff: an I/O
                    // error, a malformed response, or a round trip
                    // that outlives `fetch_timeout` costs one attempt
                    // and a fresh dial — the failed connection is
                    // never returned to the pool.
                    let mut attempt = 0u32;
                    let resp = loop {
                        let pooled = pool.idle.lock().await.pop();
                        let result = async {
                            let mut conn = match pooled {
                                Some(conn) => conn,
                                None => ClientConn::new((dialer)(url.host().to_owned()).await?),
                            };
                            let resp = conn
                                .round_trip(&req)
                                .await
                                .map_err(|e| std::io::Error::other(e.to_string()))?;
                            Ok::<_, std::io::Error>((conn, resp))
                        };
                        match tokio::time::timeout(fetch_timeout, result).await {
                            Ok(Ok((conn, resp))) => {
                                pool.idle.lock().await.push(conn);
                                break resp;
                            }
                            Ok(Err(e)) if attempt >= max_retries => return Err(e),
                            Err(_) if attempt >= max_retries => {
                                return Err(std::io::Error::new(
                                    std::io::ErrorKind::TimedOut,
                                    format!("{url}: no response within {fetch_timeout:?}"),
                                ));
                            }
                            Ok(Err(_)) | Err(_) => {
                                attempt += 1;
                                retries += 1;
                                let backoff = retry_base * 2u32.pow(attempt.min(10) - 1);
                                tokio::time::sleep(backoff).await;
                            }
                        }
                    };
                    let absorbed = caches
                        .lock()
                        .expect("planner state poisoned")
                        .planner(mode, now_secs)
                        .absorb(&url, &req, resp, is_navigation);
                    (absorbed.response, absorbed.outcome)
                }
            };

            // --- content processing: discover children ---
            let mut links = Vec::new();
            if delivered.status.is_success() {
                let kind = ResourceKind::from_path(url.path());
                match kind {
                    ResourceKind::Html | ResourceKind::Css => tokio::time::sleep(parse_base).await,
                    ResourceKind::Js => tokio::time::sleep(exec_base).await,
                    _ => {}
                }
                links = FetchPlanner::discover(&url, kind, &delivered.body);
            }

            let network = outcome.used_network();
            let since_t0 = |d: Duration| SimTime::from_nanos(d.as_nanos() as u64);
            Ok(FetchDone {
                fetch: FetchTrace {
                    url: url.to_string(),
                    discovered: since_t0(discovered),
                    started: since_t0(discovered),
                    completed: since_t0(t0.elapsed()),
                    outcome,
                    bytes_down: if network {
                        delivered.body.len() as u64
                    } else {
                        0
                    },
                    bytes_up: 0,
                    // Live fetches reuse pooled keep-alive connections:
                    // one request/response round trip per network fetch.
                    rtts: network as u32,
                    // The live path doesn't observe intra-request phase
                    // boundaries; HAR export degrades gracefully.
                    upload_done: None,
                    response_start: None,
                },
                links,
                retries,
            })
        }
    }
}

struct FetchDone {
    fetch: FetchTrace,
    /// The subresources the body references.
    links: Vec<Url>,
    retries: u32,
}
