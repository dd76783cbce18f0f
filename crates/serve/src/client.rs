//! Blocking `PGRPC` client, used by the `pimgfx-client` CLI and the
//! integration tests.

use crate::deadline::{deadline_after, expired};
use crate::protocol::{
    self, CacheStats, JobId, JobSpec, JobState, ProtoResult, ProtocolError, Request, Response,
};
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One connection to a `pimgfx-serve` daemon. Requests are strictly
/// serialized: every [`Client::call`] writes one frame and reads one
/// reply.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Fails on connection errors.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> ProtoResult<Self> {
        let writer = TcpStream::connect(addr).map_err(ProtocolError::Io)?;
        let reader = BufReader::new(writer.try_clone().map_err(ProtocolError::Io)?);
        Ok(Self { reader, writer })
    }

    /// Sends one request and reads its reply.
    ///
    /// # Errors
    ///
    /// Transport or framing failures.
    pub fn call(&mut self, req: &Request) -> ProtoResult<Response> {
        protocol::write_request(&mut self.writer, req)?;
        protocol::read_response(&mut self.reader)
    }

    /// Submits a job; the raw response distinguishes `Submitted`,
    /// `Busy` backpressure, and `ShuttingDown`.
    ///
    /// # Errors
    ///
    /// Transport or framing failures.
    pub fn submit(&mut self, spec: &JobSpec) -> ProtoResult<Response> {
        self.call(&Request::SubmitJob(spec.clone()))
    }

    /// Fetches a job's current state.
    ///
    /// # Errors
    ///
    /// Transport failures, or a server-side error reply (unknown job)
    /// surfaced as [`ProtocolError::Format`].
    pub fn status(&mut self, id: JobId) -> ProtoResult<JobState> {
        match self.call(&Request::JobStatus(id))? {
            Response::Status(state) => Ok(state),
            Response::Error(e) => Err(ProtocolError::Format(e)),
            other => unexpected(&other),
        }
    }

    /// Fetches a finished job's manifest JSON.
    ///
    /// # Errors
    ///
    /// Transport failures, or a server-side error reply (job unknown,
    /// unfinished, failed, or cancelled) as [`ProtocolError::Format`].
    pub fn fetch_manifest(&mut self, id: JobId) -> ProtoResult<String> {
        match self.call(&Request::FetchResult(id))? {
            Response::JobResult { manifest_json } => Ok(manifest_json),
            Response::Error(e) => Err(ProtocolError::Format(e)),
            other => unexpected(&other),
        }
    }

    /// Requests cancellation of a job (takes effect between cells).
    ///
    /// # Errors
    ///
    /// Transport failures, or an unknown job as
    /// [`ProtocolError::Format`].
    pub fn cancel(&mut self, id: JobId) -> ProtoResult<JobState> {
        match self.call(&Request::CancelJob(id))? {
            Response::Status(state) => Ok(state),
            Response::Error(e) => Err(ProtocolError::Format(e)),
            other => unexpected(&other),
        }
    }

    /// Fetches the server's cumulative cache counters.
    ///
    /// # Errors
    ///
    /// Transport failures, or a server-side error reply as
    /// [`ProtocolError::Format`].
    pub fn stats(&mut self) -> ProtoResult<CacheStats> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            Response::Error(e) => Err(ProtocolError::Format(e)),
            other => unexpected(&other),
        }
    }

    /// Asks the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// Transport failures, or an unexpected reply kind.
    pub fn shutdown(&mut self) -> ProtoResult<()> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => unexpected(&other),
        }
    }

    /// Polls a job every `poll` until it reaches a terminal state
    /// (`Done`, `Failed`, or `Cancelled`) or `timeout` elapses. A
    /// `timeout` too large to represent as a deadline (`Duration::MAX`
    /// and friends) saturates into "wait until terminal" instead of
    /// panicking on `Instant` overflow.
    ///
    /// # Errors
    ///
    /// Transport failures, unknown jobs, or timeout (as
    /// [`ProtocolError::Format`], naming the last observed state).
    pub fn wait(&mut self, id: JobId, timeout: Duration, poll: Duration) -> ProtoResult<JobState> {
        let deadline = deadline_after(timeout);
        loop {
            let state = self.status(id)?;
            match state {
                JobState::Queued | JobState::Running { .. } => {
                    if expired(deadline) {
                        return Err(ProtocolError::Format(format!(
                            "timed out after {:.1}s waiting for job {id} (last state: {state:?})",
                            timeout.as_secs_f64()
                        )));
                    }
                    std::thread::sleep(poll);
                }
                terminal => return Ok(terminal),
            }
        }
    }
}

fn unexpected<T>(resp: &Response) -> ProtoResult<T> {
    Err(ProtocolError::Format(format!(
        "unexpected response kind: {resp:?}"
    )))
}
