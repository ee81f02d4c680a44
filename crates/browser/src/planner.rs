//! The client's cache decision procedure, free of IO and time.
//!
//! Both page loaders — the discrete-event [`Engine`](crate::Engine)
//! and the live loader (`live`, feature `aio`) — run every fetch
//! through [`FetchPlanner::decide`] (serve locally or go to the
//! network), [`FetchPlanner::absorb`] (verify the navigation's map,
//! store or refresh the response) and [`FetchPlanner::discover`] (the
//! subresources a body references). The drivers own only transport and
//! timing, so they agree on every serving decision by construction.

use cachecatalyst_catalyst::{
    ConfigIntegrity, EtagConfig, ServiceWorker, SwDecision, SW_SCRIPT_PATH,
};
use cachecatalyst_httpcache::{HttpCache, Lookup};
use cachecatalyst_httpwire::{HeaderName, Request, Response, StatusCode, Url};
use cachecatalyst_netsim::FetchOutcome;
use cachecatalyst_webmodel::extract::{extract_css_links, extract_html_links};
use cachecatalyst_webmodel::{jsdialect, ResourceKind};

/// Serving mode of a browser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveMode {
    /// Classic HTTP cache.
    Baseline,
    /// CacheCatalyst service worker.
    Catalyst,
    /// No reuse.
    Uncached,
}

/// The decision steps of a fetch, run against a browser's persistent
/// HTTP cache and service worker. Build one per call or per load; it
/// holds no state of its own.
pub struct FetchPlanner<'a> {
    cache: &'a mut HttpCache,
    sw: &'a mut ServiceWorker,
    mode: LiveMode,
    now_secs: i64,
    swr: bool,
}

/// How a fetch is served.
#[derive(Debug)]
pub enum Decision {
    /// Serve a stored response with zero round trips.
    Local {
        response: Response,
        /// [`FetchOutcome::ServiceWorkerHit`] or [`FetchOutcome::CacheHit`].
        outcome: FetchOutcome,
        /// Whether the served copy disagrees with the consulted map
        /// entry (`None` = unknowable).
        stale: Option<bool>,
    },
    /// Send the request, which now carries any validator.
    Network,
    /// RFC 5861: serve the stale copy now (a cache hit) and refresh it
    /// with a background request carrying `revalidate`.
    ServeStale {
        response: Response,
        revalidate: Option<Validator>,
    },
}

/// The validator a conditional request carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Validator {
    /// `If-None-Match` with the stored ETag.
    Etag(String),
    /// `If-Modified-Since` with the stored `Last-Modified`.
    LastModified(String),
}

impl Validator {
    /// Makes `req` conditional on this validator.
    pub fn apply(&self, req: &mut Request) {
        match self {
            Validator::Etag(tag) => req.headers.insert(HeaderName::IF_NONE_MATCH, tag),
            Validator::LastModified(date) => {
                req.headers.insert(HeaderName::IF_MODIFIED_SINCE, date)
            }
        }
    }
}

/// What [`FetchPlanner::absorb`] made of a network response.
#[derive(Debug)]
pub struct Absorbed {
    /// The response handed to the page (a 304 resolves to the stored
    /// body).
    pub response: Response,
    /// [`FetchOutcome::NotModified`] or [`FetchOutcome::FullTransfer`].
    pub outcome: FetchOutcome,
    /// The navigation's map failed its digest and was stripped.
    pub degraded: bool,
}

impl<'a> FetchPlanner<'a> {
    /// A planner over `cache` and `sw` at virtual time `now_secs`; `swr`
    /// honors RFC 5861 `stale-while-revalidate`.
    pub fn new(
        cache: &'a mut HttpCache,
        sw: &'a mut ServiceWorker,
        mode: LiveMode,
        now_secs: i64,
        swr: bool,
    ) -> FetchPlanner<'a> {
        FetchPlanner {
            cache,
            sw,
            mode,
            now_secs,
            swr,
        }
    }

    /// Decides how to serve `url`, making `req` conditional when a
    /// stored validator exists. Also returns the `X-Etag-Config` entry
    /// (or validator) consulted, for the audit trail.
    pub fn decide(
        &mut self,
        url: &Url,
        req: &mut Request,
        is_navigation: bool,
    ) -> (Decision, Option<String>) {
        match self.mode {
            LiveMode::Catalyst if is_navigation => {
                // Navigations always go upstream; the SW's stored
                // validator makes an unchanged page cost a 304.
                let consulted = self.sw.cached_etag(&url.to_string()).map(|t| t.to_string());
                if let Some(tag) = &consulted {
                    req.headers.insert(HeaderName::IF_NONE_MATCH, tag);
                }
                (Decision::Network, consulted)
            }
            LiveMode::Catalyst => self.intercept(url, req),
            LiveMode::Baseline => self.lookup(url, req),
            LiveMode::Uncached => (Decision::Network, None),
        }
    }

    fn intercept(&mut self, url: &Url, req: &mut Request) -> (Decision, Option<String>) {
        let (key, path) = (url.to_string(), url.path());
        // Same-origin map entries are keyed by path, cross-origin ones
        // by full URL.
        let config = self.sw.config();
        let current = config.get(path).or_else(|| config.get(&key));
        // Staleness oracle: a served copy is the cached entry; the map
        // entry is the origin's *current* version (this very navigation
        // installed it). A serve despite mismatch is a catalyst bug.
        let stale = match (self.sw.cached_etag(&key), current) {
            (Some(s), Some(c)) => Some(!(s.strong_eq(c) || s.weak_eq(c))),
            _ => None,
        };
        let mut consulted = current.map(|t| t.to_string());
        let decision = match self.sw.intercept(&key, path) {
            SwDecision::ServeLocal(response) => Decision::Local {
                response,
                outcome: FetchOutcome::ServiceWorkerHit,
                stale,
            },
            SwDecision::Forward { if_none_match } => {
                if let Some(tag) = if_none_match {
                    let tag = tag.to_string();
                    req.headers.insert(HeaderName::IF_NONE_MATCH, &tag);
                    consulted.get_or_insert(tag);
                }
                Decision::Network
            }
        };
        (decision, consulted)
    }

    fn lookup(&mut self, url: &Url, req: &mut Request) -> (Decision, Option<String>) {
        match self.cache.lookup_for(&url.to_string(), req, self.now_secs) {
            Lookup::Fresh(response) => (
                Decision::Local {
                    response,
                    outcome: FetchOutcome::CacheHit,
                    stale: None,
                },
                None,
            ),
            Lookup::Stale {
                response,
                etag,
                last_modified,
                swr_usable,
            } => {
                let revalidate = etag
                    .map(Validator::Etag)
                    .or(last_modified.map(Validator::LastModified));
                if swr_usable && self.swr {
                    return (
                        Decision::ServeStale {
                            response,
                            revalidate,
                        },
                        None,
                    );
                }
                if let Some(validator) = &revalidate {
                    validator.apply(req);
                }
                match revalidate {
                    Some(Validator::Etag(tag)) => (Decision::Network, Some(tag)),
                    _ => (Decision::Network, None),
                }
            }
            Lookup::Miss => (Decision::Network, None),
        }
    }

    /// Takes in the network response to `req` (a page fetch or a
    /// [`Decision::ServeStale`] revalidation): strips a navigation's
    /// `X-Etag-Config` that fails its digest, then stores or refreshes
    /// the response in the mode's cache.
    pub fn absorb(
        &mut self,
        url: &Url,
        req: &Request,
        mut resp: Response,
        is_navigation: bool,
    ) -> Absorbed {
        // Integrity gate for the catalyst map: the service worker never
        // sees a map that fails its digest, so it clears its config and
        // every subresource falls back to a conditional or full fetch
        // (graceful degradation, never a serve from tampered state).
        let degraded = is_navigation
            && self.mode == LiveMode::Catalyst
            && matches!(
                EtagConfig::verify_headers(&resp.headers),
                ConfigIntegrity::Tampered
            );
        if degraded {
            resp.headers.remove(HeaderName::X_ETAG_CONFIG);
            resp.headers.remove(HeaderName::X_CC_CONFIG_DIGEST);
        }
        let outcome = if resp.status == StatusCode::NOT_MODIFIED {
            FetchOutcome::NotModified
        } else {
            FetchOutcome::FullTransfer
        };
        let now = self.now_secs;
        let response = match self.mode {
            LiveMode::Catalyst => {
                if is_navigation {
                    // The navigation response (200 or 304) carries the
                    // fresh map; install it, then resolve the body
                    // through the SW cache.
                    self.sw.on_navigation(&resp);
                }
                self.sw.on_response(&url.to_string(), &resp)
            }
            // A 304 refreshes the stored entry and resolves to it.
            LiveMode::Baseline if outcome == FetchOutcome::NotModified => self
                .cache
                .update_with_304(&url.to_string(), &resp, now, now)
                .unwrap_or(resp),
            LiveMode::Baseline => {
                self.cache.store(&url.to_string(), req, &resp, now, now);
                resp
            }
            LiveMode::Uncached => resp,
        };
        Absorbed {
            response,
            outcome,
            degraded,
        }
    }

    /// Admits a pushed or bundled body into the mode's cache, as
    /// browsers admit pushed streams into the HTTP cache.
    pub fn absorb_pushed(&mut self, url: &Url, req: &Request, resp: &Response) {
        let now = self.now_secs;
        match self.mode {
            LiveMode::Catalyst => drop(self.sw.on_response(&url.to_string(), resp)),
            LiveMode::Baseline => drop(self.cache.store(&url.to_string(), req, resp, now, now)),
            LiveMode::Uncached => {}
        }
    }

    /// The subresources a `kind` body fetched from `base` references:
    /// markup and stylesheet links, or the URLs a script loads.
    pub fn discover(base: &Url, kind: ResourceKind, body: &[u8]) -> Vec<Url> {
        let Ok(text) = std::str::from_utf8(body) else {
            return Vec::new();
        };
        match kind {
            ResourceKind::Html => {
                resolve(base, extract_html_links(text).into_iter().map(|l| l.href))
            }
            ResourceKind::Css => resolve(base, extract_css_links(text).into_iter().map(|l| l.href)),
            ResourceKind::Js => resolve(base, jsdialect::evaluate(text)),
            _ => Vec::new(),
        }
    }
}

/// Joins `hrefs` against `base`, skipping the service-worker script:
/// it is registered out of band and never a subresource.
fn resolve(base: &Url, hrefs: impl IntoIterator<Item = String>) -> Vec<Url> {
    hrefs
        .into_iter()
        .filter(|href| href != SW_SCRIPT_PATH)
        .filter_map(|href| base.join(&href).ok())
        .collect()
}
