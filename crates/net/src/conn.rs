//! Per-connection state shared between the owning reactor thread and
//! the worker pool.
//!
//! Lock order (when nested): `q` → `tenant` → fair-queue inner. The
//! reactor additionally holds `parse` while enqueueing (`parse` → `q`),
//! and across `Proto::try_inline` when it answers a unit itself (`q` is
//! released for that call); workers never touch `parse`, so the orders
//! cannot cycle. `out` is only ever held alone.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::buf::InputBuf;
use crate::reactor::ReactorShared;
use crate::Proto;

/// Stop copying partially-written output once the dead prefix passes
/// this many bytes.
const OUT_COMPACT: usize = 64 * 1024;

pub(crate) struct Conn<P: Proto> {
    pub token: u64,
    pub stream: TcpStream,
    /// The reactor thread that owns this connection's epoll registration.
    pub reactor: Arc<ReactorShared<P>>,
    /// Framing state; touched only by the owning reactor thread.
    pub parse: Mutex<ParseState<P>>,
    /// Ordered units awaiting execution plus the session state.
    pub q: Mutex<Queue<P>>,
    pub out: Mutex<OutBuf>,
    /// Fair-queue lane key; rewritten when the protocol reports a
    /// tenant change.
    pub tenant: Mutex<Arc<str>>,
    /// Peer finished sending (EOF or read error).
    pub eof: AtomicBool,
    /// Reads paused by write backpressure (reactor-owned hysteresis).
    pub paused: AtomicBool,
    /// Finalized: deregistered, budget released. Terminal.
    pub closed: AtomicBool,
    /// Milliseconds since server epoch of the last inbound data.
    pub last_activity_ms: AtomicU64,
    /// Last interest programmed into epoll, to skip redundant
    /// `epoll_ctl` calls. Bit 0 = readable, bit 1 = writable.
    pub interest_cache: AtomicU8,
}

pub(crate) struct ParseState<P: Proto> {
    pub parse: P::Parse,
    pub inbuf: InputBuf,
    /// Framing is unrecoverable (or the connection is saying goodbye):
    /// stop decoding; the final unit already carries the close.
    pub poisoned: bool,
}

pub(crate) struct Queue<P: Proto> {
    /// Decoded units with their admission cost, in arrival order.
    pub units: VecDeque<(P::Unit, usize)>,
    /// Session state, present iff no worker is currently running this
    /// connection.
    pub exec: Option<P::Exec>,
    /// Connection is in the fair queue or held by a worker. At most one
    /// of either, which is what serialises execution per connection.
    pub scheduled: bool,
    /// A goodbye unit has been enqueued (drain/idle); later decodes are
    /// discarded.
    pub finalized: bool,
}

#[derive(Default)]
pub(crate) struct OutBuf {
    pub buf: Vec<u8>,
    pub pos: usize,
    /// Close the socket once `buf` is fully flushed.
    pub closing: bool,
    /// Flush finished (or the socket died): reactor must finalize now.
    pub close_now: bool,
    /// Kernel send buffer is full; reactor must arm EPOLLOUT.
    pub want_write: bool,
}

impl OutBuf {
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }
}

impl<P: Proto> Conn<P> {
    /// Write as much buffered output as the socket accepts. Callable
    /// from both workers and the reactor; serialised by the `out` lock.
    /// Transitions (`want_write`, `close_now`) are picked up by the
    /// reactor on its next pass over this token.
    pub fn try_flush(&self) {
        let mut o = self.out.lock();
        loop {
            if o.pos == o.buf.len() {
                o.buf.clear();
                o.pos = 0;
                o.want_write = false;
                if o.closing {
                    o.close_now = true;
                }
                return;
            }
            match (&self.stream).write(&o.buf[o.pos..]) {
                Ok(0) => {
                    o.close_now = true;
                    return;
                }
                Ok(n) => o.pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    o.want_write = true;
                    if o.pos > OUT_COMPACT {
                        let pos = o.pos;
                        o.buf.drain(..pos);
                        o.pos = 0;
                    }
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Peer reset; drop the tail and let the reactor reap.
                    o.close_now = true;
                    return;
                }
            }
        }
    }

    /// Append a run's responses (dropped if the connection is already
    /// finalized) and mark the close the run asked for. The caller
    /// flushes.
    pub fn deliver(&self, bytes: &[u8], close: bool) {
        let mut o = self.out.lock();
        if !self.is_closed() {
            o.buf.extend_from_slice(bytes);
        }
        if close {
            o.closing = true;
        }
    }

    /// After a run: wake the owning reactor only when the run left
    /// something it must act on — a finished/broken connection to
    /// finalize, a short write to re-arm EPOLLOUT for, or a
    /// backpressure pause to lift now that the buffer drained. The
    /// common fully-flushed run changes none of these, and skipping the
    /// waker write spares a syscall plus a reactor pass per run.
    /// (`closing` with a drained buffer became `close_now` inside
    /// `try_flush`, so checking the flags after the flush is
    /// exhaustive. If the reactor pauses this connection concurrently
    /// with the check reading `false`, its same-pass `refresh` observes
    /// the already-drained buffer and unpauses without a nudge.)
    pub fn settle(&self) {
        let needs_reactor = {
            let o = self.out.lock();
            o.close_now || o.want_write || o.closing
        } || self.paused.load(Ordering::SeqCst);
        if needs_reactor {
            self.nudge();
        }
    }

    /// Ask the owning reactor to re-examine this connection (interest
    /// recompute or finalization).
    pub fn nudge(&self) {
        self.reactor.nudge(self.token);
    }

    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }
}
