//! A thin synchronous client: one connection, one request frame out,
//! one response frame in — plus a bounded, seeded retry layer
//! ([`request_with_retry`]) that makes `Overloaded` sheds and transport
//! hiccups recoverable instead of fatal.

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use wcet_bench::load::backoff_ms;

use crate::frame::{read_frame, write_frame, FrameError};
use crate::proto::{ErrorKind, Request, Response, ServeError};

/// What a request can fail with, transport-side. (A server-side failure
/// arrives as a successful [`Response::Error`], not a `ClientError`.)
#[derive(Debug)]
pub enum ClientError {
    /// Writing the request frame failed.
    Io(io::Error),
    /// Reading the response frame failed (including a server that
    /// dropped the connection without answering).
    Frame(FrameError),
    /// The response frame arrived but was not a well-formed response
    /// document.
    Proto(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "request write failed: {e}"),
            ClientError::Frame(e) => write!(f, "response read failed: {e}"),
            ClientError::Proto(e) => write!(f, "undecodable response: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A connected client.
#[derive(Debug)]
pub struct Client {
    conn: TcpStream,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Whatever the TCP connect reports.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        Client::over(TcpStream::connect(addr)?)
    }

    /// Wraps a connected stream. `TCP_NODELAY` keeps a kept-alive
    /// connection's request frames from waiting on the peer's delayed
    /// ACK.
    fn over(conn: TcpStream) -> io::Result<Client> {
        conn.set_nodelay(true)?;
        Ok(Client { conn })
    }

    /// Connects with a bounded connect timeout. `ToSocketAddrs` may
    /// resolve to several addresses; each is tried in turn with the
    /// full timeout (a dead address fails in `timeout`, not the OS
    /// default of minutes).
    ///
    /// # Errors
    ///
    /// The last address's connect error; `InvalidInput` when the
    /// address resolves to nothing.
    pub fn connect_timeout<A: ToSocketAddrs>(addr: A, timeout: Duration) -> io::Result<Client> {
        let mut last: Option<io::Error> = None;
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, timeout) {
                Ok(conn) => return Client::over(conn),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    /// Sends an arbitrary payload and decodes the response. Exists so
    /// the protocol-robustness tests (and the `wcet client ... raw`
    /// subcommand) can send byte-exact malformed payloads.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn send_raw(&mut self, payload: &str) -> Result<Response, ClientError> {
        write_frame(&mut self.conn, payload).map_err(ClientError::Io)?;
        let reply = read_frame(&mut self.conn).map_err(ClientError::Frame)?;
        Response::decode(&reply).map_err(ClientError::Proto)
    }

    /// Sends a typed request and decodes the response.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send_raw(&request.encode())
    }

    /// Submits a single-cell scenario spec with no limits.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn submit_scenario(&mut self, spec: &str) -> Result<Response, ClientError> {
        self.request(&Request::SubmitScenario {
            spec: spec.to_string(),
            limits: crate::proto::RequestLimits::default(),
        })
    }

    /// Submits a scenario matrix spec with no limits.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn submit_matrix(&mut self, spec: &str) -> Result<Response, ClientError> {
        self.request(&Request::SubmitMatrix {
            spec: spec.to_string(),
            limits: crate::proto::RequestLimits::default(),
        })
    }

    /// Asks for cumulative server statistics.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn stats(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::Stats)
    }

    /// Asks the server to flush its hot memo to disk and stop.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn shutdown(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::Shutdown)
    }
}

/// A bounded, seeded retry policy for [`request_with_retry`]. The
/// backoff is deterministic in `(seed, attempt)` — same policy, same
/// outcome sequence, same sleep schedule — which is what lets the load
/// harness assert exact retry bounds per seed.
#[derive(Debug, Clone, Copy)]
pub struct Retry {
    /// Attempts beyond the first (0 disables retrying).
    pub retries: u32,
    /// Backoff base, milliseconds (attempt `a` waits roughly
    /// `base · 2^a` plus seeded jitter below `base`).
    pub base_ms: u64,
    /// Backoff ceiling, milliseconds. A server `retry_after_ms` hint
    /// larger than the computed backoff wins, capped here too.
    pub cap_ms: u64,
    /// Jitter seed.
    pub seed: u64,
    /// Per-attempt connect timeout.
    pub connect_timeout: Duration,
}

impl Default for Retry {
    fn default() -> Retry {
        Retry {
            retries: 8,
            base_ms: 25,
            cap_ms: 2_000,
            seed: 0,
            connect_timeout: Duration::from_secs(5),
        }
    }
}

/// What one retried request spent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Attempts beyond the first.
    pub retries: u64,
    /// Retries caused by an `Overloaded` shed.
    pub shed_retries: u64,
    /// Retries caused by a transport failure (connect, torn frame,
    /// dropped connection).
    pub transport_retries: u64,
}

/// Sends `request` on a fresh connection per attempt, retrying
/// [`ErrorKind::Overloaded`] responses and transport failures with
/// seeded exponential backoff. Submissions are idempotent — the server
/// memoizes by semantic fingerprint — so retrying after a torn or
/// partial response is safe: a re-run converges to byte-identical
/// bounds (pinned by `tests/serve_overload.rs`).
///
/// Returns the final response (which is the last `Overloaded` error if
/// the budget ran out while the server was still at capacity) plus what
/// the retrying cost.
///
/// # Errors
///
/// The last attempt's transport error, once no retries remain.
pub fn request_with_retry(
    addr: SocketAddr,
    request: &Request,
    policy: &Retry,
) -> Result<(Response, RetryStats), ClientError> {
    let mut stats = RetryStats::default();
    let mut attempt: u32 = 0;
    loop {
        let outcome = Client::connect_timeout(addr, policy.connect_timeout)
            .map_err(ClientError::Io)
            .and_then(|mut client| client.request(request));
        let retry_hint = match &outcome {
            Ok(Response::Error(ServeError {
                kind: ErrorKind::Overloaded { retry_after_ms },
                ..
            })) => Some(*retry_after_ms),
            Ok(_) => return Ok((outcome?, stats)),
            Err(_) => None,
        };
        if attempt >= policy.retries {
            return outcome.map(|resp| (resp, stats));
        }
        stats.retries += 1;
        if retry_hint.is_some() {
            stats.shed_retries += 1;
        } else {
            stats.transport_retries += 1;
        }
        let wait = backoff_ms(policy.base_ms, policy.cap_ms, attempt, policy.seed)
            .max(retry_hint.unwrap_or(0).min(policy.cap_ms));
        std::thread::sleep(Duration::from_millis(wait));
        attempt += 1;
    }
}
