//! Fault injection for the serve topology.
//!
//! Resilience claims are worthless untested, and "pull the plug and
//! see" is not a test. This module makes failures *nameable and
//! repeatable* (the Sasaki/Sassa systematic-debugging discipline,
//! applied to the service layer): a [`ChaosProxy`] sits between the
//! router and a shard as an ordinary TCP hop and misbehaves on
//! command, and a [`ChaosSchedule`] derives a deterministic fault
//! timeline from a seed, so a failing chaos run can be replayed
//! byte-for-byte.
//!
//! The faults model the distinct ways a shard dies from the router's
//! point of view:
//!
//! * [`Fault::Kill`] — connection refused at accept: the process is
//!   gone. (For *cache-loss* semantics, actually restart the
//!   [`Server`](crate::server::Server) — the proxy cannot fake a cold
//!   `GrammarStore`.)
//! * [`Fault::Freeze`] — accepts but never forwards: a stalled or
//!   GC-locked process. Exercises attempt timeouts.
//! * [`Fault::DropConn`] — forwards the request, then closes before
//!   the reply: a crash mid-request. Exercises retry idempotency.
//! * [`Fault::Garble`] — flips bits in replies: a corrupted transport.
//!   Exercises the reply-parse failure path (a garbled reply must be a
//!   retry, never a client-visible parse error).
//! * [`Fault::DelayAccept`] — holds the accept for a while: an
//!   overloaded listener backlog.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::net::{ShardAddr, Stream};

/// What the proxy does to traffic right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Forward faithfully.
    None,
    /// Refuse every connection (close at accept) and cut live ones.
    Kill,
    /// Accept but forward nothing in either direction.
    Freeze,
    /// Close each connection right after forwarding its first bytes.
    DropConn,
    /// XOR every reply byte with 0x20 so the client-side JSON parse
    /// fails.
    Garble,
    /// Sleep this long before servicing each accepted connection.
    DelayAccept(Duration),
}

/// A controllable TCP proxy in front of one shard.
///
/// Listens on an ephemeral loopback port; point the router's shard
/// address at [`addr`](ChaosProxy::addr) and the real shard keeps
/// running untouched behind it.
pub struct ChaosProxy {
    addr: SocketAddr,
    fault: Arc<Mutex<Fault>>,
    stop: Arc<AtomicBool>,
    /// Bumped on `Kill` so live pump threads cut their connections.
    generation: Arc<AtomicU64>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Start proxying to `upstream`.
    ///
    /// # Errors
    ///
    /// Propagates the listener bind failure.
    pub fn start(upstream: ShardAddr) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let fault = Arc::new(Mutex::new(Fault::None));
        let stop = Arc::new(AtomicBool::new(false));
        let generation = Arc::new(AtomicU64::new(0));
        let accept_thread = {
            let fault = Arc::clone(&fault);
            let stop = Arc::clone(&stop);
            let generation = Arc::clone(&generation);
            std::thread::Builder::new()
                .name("chaos-accept".to_string())
                .spawn(move || accept_loop(&listener, &upstream, &fault, &stop, &generation))?
        };
        Ok(ChaosProxy {
            addr,
            fault,
            stop,
            generation,
            accept_thread: Some(accept_thread),
        })
    }

    /// Where the router should connect.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The proxy's address as a router shard spec.
    pub fn shard_addr(&self) -> ShardAddr {
        ShardAddr::Tcp(self.addr.to_string())
    }

    /// Switch the active fault. `Kill` also severs live connections.
    pub fn set_fault(&self, f: Fault) {
        *self.fault.lock().expect("fault poisoned") = f;
        if f == Fault::Kill {
            self.generation.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// The active fault.
    pub fn fault(&self) -> Fault {
        *self.fault.lock().expect("fault poisoned")
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.generation.fetch_add(1, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _unused = h.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: &ShardAddr,
    fault: &Arc<Mutex<Fault>>,
    stop: &Arc<AtomicBool>,
    generation: &Arc<AtomicU64>,
) {
    while !stop.load(Ordering::SeqCst) {
        let client = match listener.accept() {
            Ok((s, _peer)) => s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            Err(_) => return,
        };
        let Ok(client) = Stream::tcp(client) else {
            continue;
        };
        let mode = *fault.lock().expect("fault poisoned");
        match mode {
            Fault::Kill => {
                // Close immediately: the router sees a connection that
                // dies before a reply — indistinguishable from a dead
                // process that the kernel still RSTs for.
                client.shutdown();
                continue;
            }
            Fault::DelayAccept(d) => std::thread::sleep(d),
            _ => {}
        }
        let up = match Stream::connect(upstream, None) {
            Ok(s) => s,
            Err(_) => {
                client.shutdown();
                continue;
            }
        };
        let fault = Arc::clone(fault);
        let stop = Arc::clone(stop);
        let generation = Arc::clone(generation);
        let born = generation.load(Ordering::SeqCst);
        let _unused = std::thread::Builder::new()
            .name("chaos-pump".to_string())
            .spawn(move || pump_pair(client, up, &fault, &stop, &generation, born));
    }
}

/// Move bytes both ways until a side closes, the proxy stops, a `Kill`
/// bumps the generation, or the fault says otherwise.
fn pump_pair(
    client: Stream,
    up: Stream,
    fault: &Arc<Mutex<Fault>>,
    stop: &Arc<AtomicBool>,
    generation: &Arc<AtomicU64>,
    born: u64,
) {
    let tick = Some(Duration::from_millis(25));
    let _unused = client.set_read_timeout(tick);
    let _unused = up.set_read_timeout(tick);
    let (Ok(client_r), Ok(up_r)) = (client.try_clone(), up.try_clone()) else {
        return;
    };
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        // client → upstream carries requests verbatim; upstream → client
        // carries replies, garbled under `Garble`.
        for (mut from, mut to, is_reply) in [(client_r, up, false), (up_r, client, true)] {
            let done = &done;
            s.spawn(move || {
                pump_one(
                    &mut from, &mut to, fault, stop, generation, born, done, is_reply,
                );
                to.shutdown();
                done.store(true, Ordering::SeqCst);
            });
        }
    });
}

#[allow(clippy::too_many_arguments)]
fn pump_one(
    from: &mut impl Read,
    to: &mut impl Write,
    fault: &Arc<Mutex<Fault>>,
    stop: &Arc<AtomicBool>,
    generation: &Arc<AtomicU64>,
    born: u64,
    done: &AtomicBool,
    is_reply_direction: bool,
) {
    let mut buf = [0u8; 4096];
    let mut forwarded_any = false;
    loop {
        if stop.load(Ordering::SeqCst)
            || done.load(Ordering::SeqCst)
            || generation.load(Ordering::SeqCst) != born
        {
            return;
        }
        let mode = *fault.lock().expect("fault poisoned");
        match mode {
            Fault::Kill => return,
            Fault::Freeze => {
                // Forward nothing; leave bytes unread so backpressure
                // builds exactly like a wedged process.
                std::thread::sleep(Duration::from_millis(25));
                continue;
            }
            Fault::DropConn if forwarded_any => return,
            _ => {}
        }
        let n = match from.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        if is_reply_direction && mode == Fault::Garble {
            for b in &mut buf[..n] {
                *b ^= 0x20;
            }
        }
        if to.write_all(&buf[..n]).and_then(|()| to.flush()).is_err() {
            return;
        }
        forwarded_any = true;
    }
}

/// splitmix64: tiny, seedable, good enough to scatter fault times.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One scheduled fault: switch `shard` to `fault` at `at`, back to
/// [`Fault::None`] at `until`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Offset from run start.
    pub at: Duration,
    /// When the fault clears.
    pub until: Duration,
    /// Which shard (index into the topology) misbehaves.
    pub shard: usize,
    /// What happens to it.
    pub fault: Fault,
}

/// A deterministic fault timeline derived from a seed: same seed, same
/// run, replayable forever.
#[derive(Clone, Debug)]
pub struct ChaosSchedule {
    /// Events sorted by `at`.
    pub events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// Derive `count` fault windows over `horizon` across `shards`
    /// shards from `seed`. Windows last 5–20% of the horizon; fault
    /// kinds cycle through the non-trivial modes in seeded order.
    pub fn generate(seed: u64, shards: usize, horizon: Duration, count: usize) -> ChaosSchedule {
        let mut rng = seed;
        let kinds = [
            Fault::Kill,
            Fault::Freeze,
            Fault::DropConn,
            Fault::Garble,
            Fault::DelayAccept(Duration::from_millis(50)),
        ];
        let h_ms = horizon.as_millis().max(1) as u64;
        let mut events: Vec<ChaosEvent> = (0..count)
            .map(|_| {
                let at_ms = splitmix64(&mut rng) % (h_ms * 7 / 10); // start in the first 70%
                let len_ms = h_ms / 20 + splitmix64(&mut rng) % (h_ms * 3 / 20).max(1);
                let shard = (splitmix64(&mut rng) % shards.max(1) as u64) as usize;
                let fault = kinds[(splitmix64(&mut rng) % kinds.len() as u64) as usize];
                ChaosEvent {
                    at: Duration::from_millis(at_ms),
                    until: Duration::from_millis(at_ms + len_ms),
                    shard,
                    fault,
                }
            })
            .collect();
        events.sort_by_key(|e| e.at);
        ChaosSchedule { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    /// A trivial upstream echo server: replies to each line with
    /// `echo:<line>`.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo");
        let addr = listener.local_addr().expect("echo addr");
        let h = std::thread::spawn(move || {
            // Serve a bounded number of connections, then exit.
            for conn in listener.incoming().take(8) {
                let Ok(stream) = conn else { continue };
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    let mut out = stream;
                    let mut line = String::new();
                    while let Ok(n) = reader.read_line(&mut line) {
                        if n == 0 {
                            break;
                        }
                        if writeln!(out, "echo:{}", line.trim_end()).is_err() {
                            break;
                        }
                        line.clear();
                    }
                });
            }
        });
        (addr, h)
    }

    fn roundtrip_via(proxy: &ChaosProxy, msg: &str) -> std::io::Result<String> {
        let mut s = TcpStream::connect(proxy.addr())?;
        s.set_read_timeout(Some(Duration::from_millis(500)))?;
        writeln!(s, "{}", msg)?;
        s.flush()?;
        let mut reader = BufReader::new(s);
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "proxy closed without a reply",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    #[test]
    fn proxy_forwards_faithfully_then_kills_then_recovers() {
        let (addr, _h) = echo_server();
        let proxy = ChaosProxy::start(ShardAddr::Tcp(addr.to_string())).expect("proxy");
        assert_eq!(roundtrip_via(&proxy, "hello").unwrap(), "echo:hello");
        proxy.set_fault(Fault::Kill);
        assert!(
            roundtrip_via(&proxy, "dead?").is_err(),
            "kill let a reply through"
        );
        proxy.set_fault(Fault::None);
        assert_eq!(roundtrip_via(&proxy, "back").unwrap(), "echo:back");
    }

    #[test]
    fn garble_corrupts_replies_but_not_requests() {
        let (addr, _h) = echo_server();
        let proxy = ChaosProxy::start(ShardAddr::Tcp(addr.to_string())).expect("proxy");
        proxy.set_fault(Fault::Garble);
        let reply = roundtrip_via(&proxy, "abc");
        if let Ok(text) = reply {
            assert_ne!(text, "echo:abc", "garble did nothing");
        } // garbled newline is also acceptable corruption
    }

    #[test]
    fn freeze_stalls_the_reply_past_a_deadline() {
        let (addr, _h) = echo_server();
        let proxy = ChaosProxy::start(ShardAddr::Tcp(addr.to_string())).expect("proxy");
        proxy.set_fault(Fault::Freeze);
        let err = roundtrip_via(&proxy, "stuck").unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "freeze produced {:?}, not a read timeout",
            err
        );
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let a = ChaosSchedule::generate(42, 4, Duration::from_secs(2), 6);
        let b = ChaosSchedule::generate(42, 4, Duration::from_secs(2), 6);
        let c = ChaosSchedule::generate(43, 4, Duration::from_secs(2), 6);
        assert_eq!(a.events, b.events);
        assert_ne!(a.events, c.events, "different seeds collided");
        assert_eq!(a.events.len(), 6);
        for w in a.events.windows(2) {
            assert!(w[0].at <= w[1].at, "events unsorted");
        }
        for e in &a.events {
            assert!(e.shard < 4);
            assert!(e.until > e.at);
        }
    }
}
