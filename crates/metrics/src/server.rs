//! A hand-rolled, std-only `/metrics` endpoint.
//!
//! The accept loop is the shared [`Listener`]; each accepted connection
//! is answered synchronously on the listener thread: read the request
//! head, scrape the registry, write one HTTP/1.0-style response, close.
//! There is no keep-alive, no routing beyond `GET /metrics` and
//! `GET /healthz`, and no TLS — this is a scrape target, not a web
//! server. Bind to port 0 and read [`MetricsServer::local_addr`] for an
//! ephemeral endpoint (CI does).
//!
//! The server registers self-metrics on the registry it serves:
//! `phj_http_scrapes_total` (count of successful `/metrics` responses,
//! incremented before encoding so the very first scrape reports 1) and
//! `phj_http_scrape_duration_us` (a histogram of scrape latencies).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::listener::Listener;
use crate::prom;
use crate::registry::Registry;

/// Content type of the Prometheus text exposition format.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Handle to the listener thread. Dropping the handle stops it.
pub struct MetricsServer {
    listener: Listener,
}

impl MetricsServer {
    /// Bind `addr` and start answering `GET /metrics` with scrapes of
    /// `registry`. Returns an error if the bind fails (address in use,
    /// permission).
    pub fn start(addr: &str, registry: Arc<Registry>) -> std::io::Result<MetricsServer> {
        let listener = Listener::start("phj-metrics-http", addr, move |stream| {
            serve_one(stream, &registry)
        })?;
        Ok(MetricsServer { listener })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Stop the listener thread.
    pub fn stop(self) {
        self.listener.stop();
    }
}

fn serve_one(mut stream: TcpStream, registry: &Registry) {
    // Scrape targets send tiny requests; cap the read and bail on slow
    // clients rather than stalling the accept loop. The cap is generous
    // because a loaded host (CI running the whole suite) can delay a
    // local request head by hundreds of milliseconds.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 2048];
    let mut head = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let request_line = head
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .map(|l| String::from_utf8_lossy(l).into_owned())
        .unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");

    let (status, body) = if method != "GET" {
        ("405 Method Not Allowed", String::from("method not allowed\n"))
    } else if path == "/metrics" || path.starts_with("/metrics?") {
        // Count before encoding so the scrape observes itself — the
        // first response already reports phj_http_scrapes_total 1.
        registry
            .counter("phj_http_scrapes_total", "Successful /metrics scrapes served")
            .inc();
        let t0 = Instant::now();
        let text = prom::encode(&registry.scrape());
        registry
            .histogram("phj_http_scrape_duration_us", "Scrape encode latency (us)")
            .record(t0.elapsed().as_micros() as u64);
        ("200 OK", text)
    } else if path == "/healthz" {
        ("200 OK", String::from("ok\n"))
    } else {
        ("404 Not Found", String::from("not found; scrape /metrics\n"))
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {CONTENT_TYPE}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.0\r\nHost: phj\r\n\r\n").unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).unwrap();
        let mut halves = raw.splitn(2, "\r\n\r\n");
        (halves.next().unwrap().to_string(), halves.next().unwrap_or("").to_string())
    }

    #[test]
    fn serves_metrics_and_404s_elsewhere() {
        let reg = Arc::new(Registry::new());
        reg.counter("phj_http_test_total", "test").add(42);
        let srv = MetricsServer::start("127.0.0.1:0", Arc::clone(&reg)).unwrap();
        let addr = srv.local_addr();
        assert_ne!(addr.port(), 0, "port 0 must resolve to an ephemeral port");

        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(head.contains(CONTENT_TYPE));
        assert!(body.contains("phj_http_test_total 42\n"));

        let (head, _) = http_get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.0 404"), "{head}");

        // A second scrape after more increments sees fresh values.
        reg.counter("phj_http_test_total", "test").add(1);
        let (_, body) = http_get(addr, "/metrics");
        assert!(body.contains("phj_http_test_total 43\n"));
        srv.stop();
    }

    #[test]
    fn healthz_and_self_metrics() {
        let reg = Arc::new(Registry::new());
        let srv = MetricsServer::start("127.0.0.1:0", Arc::clone(&reg)).unwrap();
        let addr = srv.local_addr();

        let (head, body) = http_get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert_eq!(body, "ok\n");

        // Health checks are not scrapes: the first real scrape observes
        // itself and reports exactly 1.
        let (_, body) = http_get(addr, "/metrics");
        assert!(body.contains("phj_http_scrapes_total 1\n"), "{body}");
        let (_, body) = http_get(addr, "/metrics");
        assert!(body.contains("phj_http_scrapes_total 2\n"), "{body}");
        // The second scrape carries the first one's duration sample.
        assert!(body.contains("phj_http_scrape_duration_us_count"), "{body}");
        srv.stop();
    }

    #[test]
    fn non_get_is_rejected() {
        let reg = Arc::new(Registry::new());
        let srv = MetricsServer::start("127.0.0.1:0", reg).unwrap();
        let mut s = TcpStream::connect(srv.local_addr()).unwrap();
        write!(s, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.0 405"), "{raw}");
    }
}
