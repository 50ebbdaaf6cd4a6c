//! In-memory duplex byte pipes: a `TcpStream` stand-in for
//! deterministic single-process fleet tests.
//!
//! [`duplex`] returns two connected [`PipeStream`] endpoints; bytes
//! written to one are read from the other, in order, with blocking
//! reads and bounded-buffer blocking writes — the same observable
//! semantics as a loopback TCP connection, minus the kernel, ports, and
//! nondeterministic timing. Cloning an endpoint shares it (like
//! `TcpStream::try_clone`), so one thread can read while another
//! writes. Dropping *all* clones of an endpoint closes it: the peer's
//! reads drain whatever is buffered and then return `Ok(0)` (EOF), and
//! the peer's writes fail with [`std::io::ErrorKind::BrokenPipe`] —
//! which is exactly the hook a fleet test needs to simulate connection
//! loss ([`PipeStream::shutdown`] does the same without dropping).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Condvar, Mutex};

/// One direction of a duplex pipe: a bounded byte buffer plus
/// open/closed state for each end.
#[derive(Debug)]
struct Channel {
    state: Mutex<ChannelState>,
    /// Signalled on every state change (bytes in, bytes out, close).
    cond: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct ChannelState {
    buf: VecDeque<u8>,
    /// Writer end gone: reads drain then EOF.
    write_closed: bool,
    /// Reader end gone: writes fail immediately (nobody will drain).
    read_closed: bool,
}

impl Channel {
    fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(ChannelState {
                buf: VecDeque::new(),
                write_closed: false,
                read_closed: false,
            }),
            cond: Condvar::new(),
            capacity,
        }
    }

    fn read(&self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut state = self.state.lock().expect("pipe lock");
        loop {
            if !state.buf.is_empty() {
                let n = out.len().min(state.buf.len());
                let (front, back) = state.buf.as_slices();
                let split = n.min(front.len());
                out[..split].copy_from_slice(&front[..split]);
                out[split..n].copy_from_slice(&back[..n - split]);
                state.buf.drain(..n);
                self.cond.notify_all();
                return Ok(n);
            }
            if state.write_closed {
                return Ok(0); // clean EOF
            }
            if state.read_closed {
                // Our own end was shut down while we were blocked.
                return Ok(0);
            }
            state = self.cond.wait(state).expect("pipe lock");
        }
    }

    fn write(&self, mut data: &[u8]) -> io::Result<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let total = data.len();
        let mut state = self.state.lock().expect("pipe lock");
        while !data.is_empty() {
            if state.read_closed || state.write_closed {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "pipe peer closed",
                ));
            }
            let room = self.capacity.saturating_sub(state.buf.len());
            if room == 0 {
                state = self.cond.wait(state).expect("pipe lock");
                continue;
            }
            let n = room.min(data.len());
            state.buf.extend(&data[..n]);
            data = &data[n..];
            self.cond.notify_all();
        }
        Ok(total)
    }

    fn close_write(&self) {
        let mut state = self.state.lock().expect("pipe lock");
        state.write_closed = true;
        self.cond.notify_all();
    }

    fn close_read(&self) {
        let mut state = self.state.lock().expect("pipe lock");
        state.read_closed = true;
        self.cond.notify_all();
    }
}

/// Shared ownership of one endpoint's liveness: when the last clone
/// drops, close our write direction (peer sees EOF) and our read
/// direction (peer's writes break).
#[derive(Debug)]
struct EndpointGuard {
    /// Channel this endpoint writes into.
    tx: Arc<Channel>,
    /// Channel this endpoint reads from.
    rx: Arc<Channel>,
}

impl Drop for EndpointGuard {
    fn drop(&mut self) {
        self.tx.close_write();
        self.rx.close_read();
    }
}

/// One endpoint of an in-memory duplex pipe (see [`duplex`]).
///
/// Implements [`Read`] + [`Write`] with TCP-like semantics and is
/// `Clone` (clones share the endpoint, like `TcpStream::try_clone`).
#[derive(Debug, Clone)]
pub struct PipeStream {
    guard: Arc<EndpointGuard>,
}

impl PipeStream {
    /// Hard-close both directions of this endpoint immediately, even if
    /// clones remain: the peer's pending and future reads see EOF, its
    /// writes fail with `BrokenPipe`, and so do ours. This is the
    /// "yank the network cable" primitive for connection-loss tests.
    pub fn shutdown(&self) {
        self.guard.tx.close_write();
        self.guard.tx.close_read();
        self.guard.rx.close_read();
        self.guard.rx.close_write();
    }
}

impl Read for PipeStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.guard.rx.read(buf)
    }
}

impl Write for PipeStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.guard.tx.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Create a connected pair of in-memory duplex streams with
/// `capacity` bytes of buffering per direction.
///
/// ```
/// use std::io::{Read, Write};
/// let (mut a, mut b) = tn_serve::pipe::duplex(64);
/// a.write_all(b"ping").unwrap();
/// let mut buf = [0u8; 4];
/// b.read_exact(&mut buf).unwrap();
/// assert_eq!(&buf, b"ping");
/// drop(a); // close: b's next read is EOF
/// assert_eq!(b.read(&mut buf).unwrap(), 0);
/// ```
pub fn duplex(capacity: usize) -> (PipeStream, PipeStream) {
    let ab = Arc::new(Channel::new(capacity.max(1)));
    let ba = Arc::new(Channel::new(capacity.max(1)));
    let a = PipeStream {
        guard: Arc::new(EndpointGuard {
            tx: Arc::clone(&ab),
            rx: Arc::clone(&ba),
        }),
    };
    let b = PipeStream {
        guard: Arc::new(EndpointGuard { tx: ba, rx: ab }),
    };
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_flow_both_ways_in_order() {
        let (mut a, mut b) = duplex(8);
        a.write_all(b"hello").expect("write");
        b.write_all(b"world").expect("write");
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"hello");
        a.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"world");
    }

    #[test]
    fn bounded_buffer_blocks_until_drained() {
        let (mut a, mut b) = duplex(4);
        let writer = std::thread::spawn(move || {
            a.write_all(&[7u8; 64]).expect("write 64 through a 4-byte pipe");
        });
        let mut got = Vec::new();
        let mut buf = [0u8; 16];
        while got.len() < 64 {
            let n = b.read(&mut buf).expect("read");
            assert!(n > 0);
            got.extend_from_slice(&buf[..n]);
        }
        writer.join().expect("join");
        assert!(got.iter().all(|&x| x == 7));
    }

    #[test]
    fn drop_yields_eof_then_broken_pipe() {
        let (a, mut b) = duplex(8);
        {
            let mut a2 = a.clone();
            a2.write_all(b"xy").expect("write");
        } // dropping a clone does not close — `a` still lives
        drop(a);
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).expect("drain"), 2, "buffered bytes drain");
        assert_eq!(b.read(&mut buf).expect("eof"), 0, "then EOF");
        let err = b.write_all(b"z").expect_err("peer gone");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn shutdown_unblocks_a_parked_reader() {
        let (a, mut b) = duplex(8);
        let a2 = a.clone();
        let reader = std::thread::spawn(move || {
            let mut buf = [0u8; 1];
            b.read(&mut buf).expect("read returns on shutdown")
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        a2.shutdown();
        assert_eq!(reader.join().expect("join"), 0, "EOF, not a hang");
    }
}
