//! A minimal blocking client: one TCP connection, one request frame
//! out, one response frame back. `phj client` and the `serve_load`
//! bench both drive the daemon through this type, so the wire path the
//! benches measure is the wire path users get.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::proto::{read_frame, read_frame_rest, FrameError, ProtoError, Request, Response};

/// Client-side wall-clock breakdown of one request
/// ([`Connection::request_timed`]): how long the send took, how long
/// the client waited for the *first* response byte, and how long the
/// rest of the response frame took to arrive. `wait` is the span the
/// server's own `query_trace` section accounts for (queue + grant +
/// exec + serialize, plus network) — `phj client --trace-out` lines
/// the two up in one Perfetto timeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientTiming {
    /// Writing the request frame.
    pub send: Duration,
    /// Send completion → first response byte.
    pub wait: Duration,
    /// First response byte → full frame received.
    pub recv: Duration,
}

/// One connection to a `phj serve` daemon.
pub struct Connection {
    stream: TcpStream,
    /// Set when an exchange failed on the wire (timeout, reset,
    /// truncated or unframeable reply): the late reply may still be in
    /// flight, so the stream's framing can no longer be trusted.
    broken: bool,
}

impl Connection {
    /// Connect, with a default 60 s read timeout (queries can queue
    /// behind a full admission table; a dead server should still fail).
    /// Nagle is off: every frame is one write, so there is nothing to
    /// coalesce and a held-back segment only adds a delayed-ACK stall.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Connection { stream, broken: false })
    }

    /// Override the read timeout (None = block forever).
    pub fn set_read_timeout(&mut self, t: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(t)
    }

    /// Run one write-then-read exchange on the stream. Any failure
    /// inside it leaves the request/response phase unknown, so it
    /// poisons the connection: every later call fails with
    /// [`std::io::ErrorKind::NotConnected`] instead of reading the
    /// previous request's late reply as its own.
    fn exchange<T>(
        &mut self,
        f: impl FnOnce(&mut TcpStream) -> Result<T, FrameError>,
    ) -> Result<T, FrameError> {
        if self.broken {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "connection is out of phase after a failed exchange; reconnect",
            )
            .into());
        }
        let out = f(&mut self.stream);
        self.broken = out.is_err();
        out
    }

    /// Send one request and block for its response. A server that
    /// closes without answering surfaces as
    /// [`ProtoError::Truncated`].
    pub fn request(&mut self, req: &Request) -> Result<Response, FrameError> {
        let frame = req.encode_frame()?;
        let body = self.exchange(|stream| {
            stream.write_all(&frame)?;
            read_frame(stream)?.ok_or(ProtoError::Truncated.into())
        })?;
        Ok(Response::decode(&body)?)
    }

    /// [`request`](Self::request) with a client-side send/wait/recv
    /// breakdown. The first response byte is read by hand so the
    /// wait→recv boundary is the actual first byte on the wire, not a
    /// whole-frame read.
    pub fn request_timed(
        &mut self,
        req: &Request,
    ) -> Result<(Response, ClientTiming), FrameError> {
        let t0 = Instant::now();
        let frame = req.encode_frame()?;
        let (body, sent, first_byte) = self.exchange(|stream| {
            stream.write_all(&frame)?;
            let sent = Instant::now();
            let mut first = [0u8; 1];
            loop {
                match stream.read(&mut first) {
                    // A server that closes without answering: same typed
                    // error the untimed path reports.
                    Ok(0) => return Err(ProtoError::Truncated.into()),
                    Ok(_) => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e.into()),
                }
            }
            let first_byte = Instant::now();
            Ok((read_frame_rest(first[0], stream)?, sent, first_byte))
        })?;
        let resp = Response::decode(&body)?;
        let done = Instant::now();
        let timing = ClientTiming {
            send: sent.duration_since(t0),
            wait: first_byte.duration_since(sent),
            recv: done.duration_since(first_byte),
        };
        Ok((resp, timing))
    }
}
