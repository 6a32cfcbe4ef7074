//! One group member as three `std::thread`s around a blocking UDP socket.
//!
//! ```text
//!             ┌────────────┐   Event::Datagram    ┌────────────┐
//!  socket ───▶│  receiver  │──────────────────────▶            │
//!             │ (barrier,  │   bounded channel    │   driver   │──▶ socket
//!             │  loss inj.)│                      │ (owns the  │
//!             └────────────┘      Event::Tick     │  Engine)   │──▶ AppEvent
//!             ┌────────────┐──────────────────────▶            │    channel
//!             │   ticker   │                      └─────▲──────┘
//!             └────────────┘      Event::Cmd(…)         │
//!                       ProcessHandle ──────────────────┘
//! ```
//!
//! * The **receiver** thread runs the startup barrier (hello exchange),
//!   then forwards datagrams — applying the optional Bernoulli loss
//!   injector — into a bounded channel. A full channel *drops* the
//!   datagram (counted): backpressure on a real network is loss, and the
//!   protocol's recovery machinery already handles loss.
//! * The **ticker** thread replaces the simulator's round clock: one
//!   `Event::Tick` per `round_duration`, with burst catch-up after
//!   stalls ([`RoundPacer`]).
//! * The **driver** thread is the only one touching the [`Engine`]. It is
//!   a plain event loop: tick → `begin_round`; datagram → reassemble →
//!   `on_frame`; command → query/submit. All engine outputs are flushed
//!   to the socket (fragmented to the MTU) or the application channel.
//!
//! The sender of a frame is identified by the fragment header's `src`
//! field, never by the datagram's source address — so members can sit
//! behind address-rewriting middleboxes such as this crate's
//! [`LossyProxy`](crate::LossyProxy).

use std::collections::HashSet;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use urcgc::{
    Clock, Engine, EngineSnapshot, EngineStats, Node, Output, ProcessStatus, RoundPacer, WallClock,
};
use urcgc_types::{DataMsg, GroupId, Mid, ProcessId, ProtocolConfig, Round};

use crate::frag::{Fragmenter, Reassembler};

/// Magic first byte of the startup-barrier hello (never a valid PDU tag or
/// transport-frame tag).
const HELLO: u8 = 0xFF;
/// Hello datagram: `[HELLO, pid_lo, pid_hi]`.
const HELLO_LEN: usize = 3;
/// How often the barrier re-bursts hellos.
const HELLO_BURST_EVERY: Duration = Duration::from_millis(40);
/// Socket read timeout — bounds how stale a stop-flag check can be.
const READ_TIMEOUT: Duration = Duration::from_millis(25);
/// How long a handle waits for the driver to answer a command.
const CMD_TIMEOUT: Duration = Duration::from_secs(10);

/// Tuning knobs for one node.
#[derive(Clone, Debug)]
pub struct NodeOptions {
    /// Wall-clock length of one protocol round. Must comfortably exceed
    /// network latency for the paper's synchronous-round assumption to
    /// hold (trivially true on localhost/LAN at the 5–20 ms defaults).
    pub round_duration: Duration,
    /// Maximum datagram size; engine frames are fragmented to fit.
    pub mtu: usize,
    /// How long an incomplete fragment transfer is kept before eviction.
    pub reassembly_ttl: Duration,
    /// Receive-side Bernoulli drop probability (fault injection on real
    /// sockets); applied after the startup barrier.
    pub loss: f64,
    /// Seed for the loss injector.
    pub seed: u64,
    /// How long the startup barrier waits for all peers before giving up
    /// and starting anyway.
    pub hello_deadline: Duration,
    /// The group this member hosts. Wire frames carry a group envelope
    /// ([`urcgc_types::group`]); a frame for any other group is dropped at
    /// demux without a PDU decode (counted in
    /// [`NetStats::foreign_group_frames`]).
    pub group: GroupId,
}

impl Default for NodeOptions {
    fn default() -> NodeOptions {
        NodeOptions {
            round_duration: Duration::from_millis(10),
            mtu: 1400,
            reassembly_ttl: Duration::from_secs(2),
            loss: 0.0,
            seed: 0,
            hello_deadline: Duration::from_secs(15),
            group: GroupId(0),
        }
    }
}

impl NodeOptions {
    /// Sets the round cadence.
    pub fn round_duration(mut self, d: Duration) -> NodeOptions {
        self.round_duration = d;
        self
    }

    /// Sets the loss injector.
    pub fn loss(mut self, p: f64, seed: u64) -> NodeOptions {
        self.loss = p;
        self.seed = seed;
        self
    }

    /// Sets the datagram MTU.
    pub fn mtu(mut self, mtu: usize) -> NodeOptions {
        self.mtu = mtu;
        self
    }

    /// Sets the hosted group.
    pub fn group(mut self, group: GroupId) -> NodeOptions {
        self.group = group;
        self
    }
}

/// Events surfaced to the application.
#[derive(Clone, Debug)]
pub enum AppEvent {
    /// `urcgc.data.Ind`: a message was processed, in causal order. The
    /// handle is shared with the engine's history buffer.
    Delivered(Arc<DataMsg>),
    /// `urcgc.data.Conf`: an own submission was broadcast and processed.
    Confirmed(Mid),
    /// Waiting messages were destroyed by orphan elimination.
    Discarded(Vec<Mid>),
    /// The entity's life-cycle status changed.
    StatusChanged(ProcessStatus),
}

/// Failures when spawning or using the group.
#[derive(Debug)]
pub enum GroupError {
    /// Socket setup failed.
    Io(io::Error),
    /// The member's driver thread has terminated.
    ProcessGone,
    /// The submission or configuration was rejected.
    Rejected(String),
}

impl std::fmt::Display for GroupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupError::Io(e) => write!(f, "socket error: {e}"),
            GroupError::ProcessGone => write!(f, "process thread has terminated"),
            GroupError::Rejected(e) => write!(f, "rejected: {e}"),
        }
    }
}

impl std::error::Error for GroupError {}

impl From<io::Error> for GroupError {
    fn from(e: io::Error) -> Self {
        GroupError::Io(e)
    }
}

/// Network-layer counters for one node (all monotonic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Datagrams read off the socket (including hellos and injected loss).
    pub datagrams_rx: u64,
    /// Datagrams written to the socket (fragments + hellos).
    pub datagrams_tx: u64,
    /// Datagrams discarded by the Bernoulli loss injector.
    pub dropped_loss: u64,
    /// Datagrams discarded because the driver's event queue was full.
    pub dropped_backpressure: u64,
    /// Complete engine frames handed to the engine.
    pub frames_rx: u64,
    /// Frames the engine rejected as malformed (plus undecodable
    /// fragments, counted by the reassembler).
    pub malformed: u64,
    /// Frames whose group envelope named a group this node does not host —
    /// dropped after the 9-byte header read, before any PDU decode (the
    /// genuineness counter).
    pub foreign_group_frames: u64,
    /// Partial fragment transfers evicted on TTL.
    pub reassembly_evicted: u64,
    /// Protocol rounds begun.
    pub rounds: u64,
}

#[derive(Default)]
struct NetCounters {
    datagrams_rx: AtomicU64,
    datagrams_tx: AtomicU64,
    dropped_loss: AtomicU64,
    dropped_backpressure: AtomicU64,
    frames_rx: AtomicU64,
    malformed: AtomicU64,
    foreign_group_frames: AtomicU64,
    reassembly_evicted: AtomicU64,
    rounds: AtomicU64,
}

impl NetCounters {
    fn snapshot(&self) -> NetStats {
        NetStats {
            datagrams_rx: self.datagrams_rx.load(Ordering::Relaxed),
            datagrams_tx: self.datagrams_tx.load(Ordering::Relaxed),
            dropped_loss: self.dropped_loss.load(Ordering::Relaxed),
            dropped_backpressure: self.dropped_backpressure.load(Ordering::Relaxed),
            frames_rx: self.frames_rx.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            foreign_group_frames: self.foreign_group_frames.load(Ordering::Relaxed),
            reassembly_evicted: self.reassembly_evicted.load(Ordering::Relaxed),
            rounds: self.rounds.load(Ordering::Relaxed),
        }
    }
}

enum Cmd {
    Submit {
        payload: Bytes,
        deps: Vec<Mid>,
        resp: Sender<Result<Mid, String>>,
    },
    Status {
        resp: Sender<ProcessStatus>,
    },
    Stats {
        resp: Sender<EngineStats>,
    },
    Snapshot {
        resp: Sender<EngineSnapshot>,
    },
    /// Run a closure against the live engine on the driver thread — the
    /// observation hook the loopback-cluster harness uses to evaluate
    /// quiescence without widening the engine's query API.
    Probe(Box<dyn FnOnce(&Engine) + Send>),
    /// Hard-kill the process (simulated crash: the driver exits
    /// immediately, mid-protocol, without telling anyone).
    Kill,
    Shutdown,
}

enum Event {
    Datagram(Bytes),
    Tick,
    BarrierDone,
    Cmd(Cmd),
}

/// Client-side handle to one group member. All methods are blocking (with
/// internal timeouts); the handle is cheap to move to another thread.
pub struct ProcessHandle {
    id: ProcessId,
    local_addr: SocketAddr,
    tx: SyncSender<Event>,
    evt_rx: Receiver<AppEvent>,
    net: Arc<NetCounters>,
}

impl ProcessHandle {
    /// The member this handle controls.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The address the member's socket actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    fn send(&self, ev: Event) -> Result<(), GroupError> {
        self.tx.send(ev).map_err(|_| GroupError::ProcessGone)
    }

    /// Submits a message with explicit causal dependencies; returns the
    /// assigned mid.
    pub fn submit(&self, payload: Bytes, deps: Vec<Mid>) -> Result<Mid, GroupError> {
        let (resp, rx) = mpsc::channel();
        self.send(Event::Cmd(Cmd::Submit {
            payload,
            deps,
            resp,
        }))?;
        rx.recv_timeout(CMD_TIMEOUT)
            .map_err(|_| GroupError::ProcessGone)?
            .map_err(GroupError::Rejected)
    }

    /// Waits up to `timeout` for the next application event. `None` means
    /// the timeout elapsed or the member exited.
    pub fn next_event(&mut self, timeout: Duration) -> Option<AppEvent> {
        self.evt_rx.recv_timeout(timeout).ok()
    }

    /// Non-blocking event poll.
    pub fn try_event(&mut self) -> Option<AppEvent> {
        self.evt_rx.try_recv().ok()
    }

    /// Queries the entity's life-cycle status.
    pub fn status(&self) -> Result<ProcessStatus, GroupError> {
        let (resp, rx) = mpsc::channel();
        self.send(Event::Cmd(Cmd::Status { resp }))?;
        rx.recv_timeout(CMD_TIMEOUT)
            .map_err(|_| GroupError::ProcessGone)
    }

    /// Queries the entity's live counters.
    pub fn stats(&self) -> Result<EngineStats, GroupError> {
        let (resp, rx) = mpsc::channel();
        self.send(Event::Cmd(Cmd::Stats { resp }))?;
        rx.recv_timeout(CMD_TIMEOUT)
            .map_err(|_| GroupError::ProcessGone)
    }

    /// Takes a full serializable snapshot of the entity's state (frontiers,
    /// view, backlog, counters) — the operations surface.
    pub fn snapshot(&self) -> Result<EngineSnapshot, GroupError> {
        let (resp, rx) = mpsc::channel();
        self.send(Event::Cmd(Cmd::Snapshot { resp }))?;
        rx.recv_timeout(CMD_TIMEOUT)
            .map_err(|_| GroupError::ProcessGone)
    }

    /// Runs `f` against the live engine on the driver thread and returns
    /// its result — arbitrary read-only observation (the loopback-cluster
    /// harness evaluates its quiescence predicate through this).
    pub fn with_engine<T, F>(&self, f: F) -> Result<T, GroupError>
    where
        T: Send + 'static,
        F: FnOnce(&Engine) -> T + Send + 'static,
    {
        let (resp, rx) = mpsc::channel();
        self.send(Event::Cmd(Cmd::Probe(Box::new(move |engine| {
            let _ = resp.send(f(engine));
        }))))?;
        rx.recv_timeout(CMD_TIMEOUT)
            .map_err(|_| GroupError::ProcessGone)
    }

    /// Network-layer counters (lock-free read; no driver round-trip).
    pub fn net_stats(&self) -> NetStats {
        self.net.snapshot()
    }

    /// Simulates a fail-stop crash: the driver thread exits immediately,
    /// mid-protocol, without notifying the group. The survivors are
    /// expected to detect the crash through the protocol's `attempts`
    /// counters within `K` subruns.
    pub fn kill(&self) -> Result<(), GroupError> {
        self.send(Event::Cmd(Cmd::Kill))
    }
}

/// Deferred shutdown token: stops members and joins their threads.
pub struct GroupShutdown {
    txs: Vec<SyncSender<Event>>,
    stops: Vec<Arc<AtomicBool>>,
    threads: Vec<JoinHandle<()>>,
}

impl GroupShutdown {
    /// An empty token, for aggregating members spawned one by one.
    pub fn empty() -> GroupShutdown {
        GroupShutdown {
            txs: Vec::new(),
            stops: Vec::new(),
            threads: Vec::new(),
        }
    }

    /// Folds another token's members into this one.
    pub fn merge(&mut self, other: GroupShutdown) {
        self.txs.extend(other.txs);
        self.stops.extend(other.stops);
        self.threads.extend(other.threads);
    }

    /// Stops all members and joins their threads.
    pub fn shutdown(self) {
        for tx in &self.txs {
            let _ = tx.send(Event::Cmd(Cmd::Shutdown));
        }
        for stop in &self.stops {
            stop.store(true, Ordering::Relaxed);
        }
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Spawns a **single** group member on a pre-bound socket, with the full
/// peer address list supplied explicitly — the deployment shape for real
/// multi-process / multi-host groups (each OS process runs one member and
/// is given everyone's addresses out of band).
///
/// `peers[i]` must be where datagrams *for* process `i` should be sent
/// (its socket, or a middlebox in front of it); `peers[me]` is never
/// dialed. Sender identity travels inside the fragment header, so the
/// entries may point at address-rewriting proxies.
///
/// Members may start at different times: the startup barrier holds the
/// round clock until every peer has been heard from (or its deadline
/// passes), and a late starter fast-forwards its round clock from the
/// first decision it receives.
pub fn spawn_member_on(
    socket: UdpSocket,
    me: ProcessId,
    peers: Vec<SocketAddr>,
    cfg: ProtocolConfig,
    opts: NodeOptions,
) -> Result<(ProcessHandle, GroupShutdown), GroupError> {
    cfg.validate()
        .map_err(|e| GroupError::Rejected(e.to_string()))?;
    if peers.len() != cfg.n {
        return Err(GroupError::Rejected(format!(
            "peer list has {} entries for a group of {}",
            peers.len(),
            cfg.n
        )));
    }
    if me.index() >= cfg.n {
        return Err(GroupError::Rejected(format!(
            "member {me} outside group of {}",
            cfg.n
        )));
    }
    if !(0.0..=1.0).contains(&opts.loss) {
        return Err(GroupError::Rejected(format!(
            "loss probability {} out of range",
            opts.loss
        )));
    }
    let local_addr = socket.local_addr()?;
    socket.set_read_timeout(Some(READ_TIMEOUT))?;
    let rx_socket = socket.try_clone()?;
    let tx_socket = socket;

    let node = Node::single(me, opts.group, cfg);
    let (tx, rx) = mpsc::sync_channel::<Event>(4096);
    let (evt_tx, evt_rx) = mpsc::channel::<AppEvent>();
    let stop = Arc::new(AtomicBool::new(false));
    let net = Arc::new(NetCounters::default());

    let mut threads = Vec::with_capacity(3);
    {
        let (tx, stop, net, peers, opts) = (
            tx.clone(),
            stop.clone(),
            net.clone(),
            peers.clone(),
            opts.clone(),
        );
        threads.push(
            thread::Builder::new()
                .name(format!("urcgc-rx-{}", me.0))
                .spawn(move || receiver_loop(rx_socket, me, &peers, &opts, &tx, &net, &stop))
                .map_err(GroupError::Io)?,
        );
    }
    {
        let (tx, stop, period) = (tx.clone(), stop.clone(), opts.round_duration);
        threads.push(
            thread::Builder::new()
                .name(format!("urcgc-tick-{}", me.0))
                .spawn(move || ticker_loop(period, &tx, &stop))
                .map_err(GroupError::Io)?,
        );
    }
    {
        let (stop, net, evt_tx) = (stop.clone(), net.clone(), evt_tx.clone());
        threads.push(
            thread::Builder::new()
                .name(format!("urcgc-drv-{}", me.0))
                .spawn(move || driver_loop(node, tx_socket, peers, opts, rx, &evt_tx, &net, &stop))
                .map_err(GroupError::Io)?,
        );
    }
    drop(evt_tx);

    Ok((
        ProcessHandle {
            id: me,
            local_addr,
            tx: tx.clone(),
            evt_rx,
            net,
        },
        GroupShutdown {
            txs: vec![tx],
            stops: vec![stop],
            threads,
        },
    ))
}

/// Binds `bind_addr` and spawns a member on it ([`spawn_member_on`]).
pub fn spawn_member(
    me: ProcessId,
    bind_addr: SocketAddr,
    peers: Vec<SocketAddr>,
    cfg: ProtocolConfig,
    opts: NodeOptions,
) -> Result<(ProcessHandle, GroupShutdown), GroupError> {
    let socket = UdpSocket::bind(bind_addr)?;
    spawn_member_on(socket, me, peers, cfg, opts)
}

fn hello(me: ProcessId) -> [u8; HELLO_LEN] {
    let [lo, hi] = me.0.to_le_bytes();
    [HELLO, lo, hi]
}

fn parse_hello(buf: &[u8]) -> Option<ProcessId> {
    if buf.len() == HELLO_LEN && buf[0] == HELLO {
        Some(ProcessId(u16::from_le_bytes([buf[1], buf[2]])))
    } else {
        None
    }
}

/// Best-effort peek at the sender of an encoded fragment (barrier use).
fn peek_src(buf: &[u8]) -> Option<ProcessId> {
    match urcgc_transport::TFrame::decode(Bytes::copy_from_slice(buf)) {
        Some(urcgc_transport::TFrame::Data { src, .. }) => Some(src),
        _ => None,
    }
}

fn hello_burst(socket: &UdpSocket, me: ProcessId, peers: &[SocketAddr], net: &NetCounters) {
    for (i, addr) in peers.iter().enumerate() {
        if i != me.index() {
            let _ = socket.send_to(&hello(me), addr);
            net.datagrams_tx.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Startup barrier + receive loop.
///
/// Fixed-membership round protocols need all members present before
/// attempt counters start ticking, or a late starter is declared crashed
/// before it boots (the paper has no rejoin). Every member bursts hello
/// datagrams at all peers until it has heard *something* from each of them
/// (a hello or live protocol traffic), with a deadline so a genuinely dead
/// peer cannot wedge startup forever. After the barrier, a member answers
/// any stray hello directly — under packet loss a peer may still be stuck
/// in its own barrier, and the answer is what releases it.
fn receiver_loop(
    socket: UdpSocket,
    me: ProcessId,
    peers: &[SocketAddr],
    opts: &NodeOptions,
    tx: &SyncSender<Event>,
    net: &NetCounters,
    stop: &AtomicBool,
) {
    let mut buf = vec![0u8; 64 * 1024];
    let mut seen: HashSet<ProcessId> = [me].into();
    let deadline = Instant::now() + opts.hello_deadline;
    let mut last_burst: Option<Instant> = None;
    while !stop.load(Ordering::Relaxed) && seen.len() < peers.len() && Instant::now() < deadline {
        if last_burst.map_or(true, |t| t.elapsed() >= HELLO_BURST_EVERY) {
            hello_burst(&socket, me, peers, net);
            last_burst = Some(Instant::now());
        }
        match socket.recv_from(&mut buf) {
            Ok((len, _)) => {
                net.datagrams_rx.fetch_add(1, Ordering::Relaxed);
                if let Some(from) = parse_hello(&buf[..len]) {
                    seen.insert(from);
                } else {
                    // A peer past its barrier is already talking protocol:
                    // that counts as presence, and the frame must not be
                    // lost — forward it.
                    if let Some(from) = peek_src(&buf[..len]) {
                        seen.insert(from);
                    }
                    forward(tx, net, &buf[..len]);
                }
            }
            Err(e) if would_block(&e) => {}
            Err(_) => return,
        }
    }
    // One parting burst so peers still inside their barrier see us even if
    // our earlier hellos raced their bind().
    hello_burst(&socket, me, peers, net);
    if tx.send(Event::BarrierDone).is_err() {
        return;
    }

    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        match socket.recv_from(&mut buf) {
            Ok((len, _)) => {
                net.datagrams_rx.fetch_add(1, Ordering::Relaxed);
                if opts.loss > 0.0 && rng.gen_bool(opts.loss) {
                    net.dropped_loss.fetch_add(1, Ordering::Relaxed);
                    continue; // injected omission
                }
                if let Some(from) = parse_hello(&buf[..len]) {
                    // A peer still inside its startup barrier: answer so it
                    // can complete even when its own hellos are being lost.
                    if from != me && from.index() < peers.len() {
                        let _ = socket.send_to(&hello(me), peers[from.index()]);
                        net.datagrams_tx.fetch_add(1, Ordering::Relaxed);
                    }
                    continue;
                }
                if !forward(tx, net, &buf[..len]) {
                    return;
                }
            }
            Err(e) if would_block(&e) => {}
            Err(_) => return,
        }
    }
}

fn would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Hands a datagram to the driver; a full queue counts as loss. Returns
/// false when the driver is gone.
fn forward(tx: &SyncSender<Event>, net: &NetCounters, buf: &[u8]) -> bool {
    match tx.try_send(Event::Datagram(Bytes::copy_from_slice(buf))) {
        Ok(()) => true,
        Err(TrySendError::Full(_)) => {
            net.dropped_backpressure.fetch_add(1, Ordering::Relaxed);
            true
        }
        Err(TrySendError::Disconnected(_)) => false,
    }
}

/// Paces [`Event::Tick`]s at the round cadence, bursting to catch up after
/// a stall (and re-anchoring after a long one — [`RoundPacer`]).
fn ticker_loop(period: Duration, tx: &SyncSender<Event>, stop: &AtomicBool) {
    let clock = WallClock::new();
    let mut pacer = RoundPacer::new(clock.now(), period);
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let now = clock.now();
        if pacer.poll(now).is_some() {
            if tx.send(Event::Tick).is_err() {
                return;
            }
            continue;
        }
        let wait = pacer
            .until_due(clock.now())
            .clamp(Duration::from_micros(200), Duration::from_millis(50));
        thread::sleep(wait);
    }
}

#[allow(clippy::too_many_arguments)]
fn driver_loop(
    mut node: Node,
    socket: UdpSocket,
    peers: Vec<SocketAddr>,
    opts: NodeOptions,
    rx: Receiver<Event>,
    evt_tx: &Sender<AppEvent>,
    net: &NetCounters,
    stop: &AtomicBool,
) {
    let me = node.me();
    let group = opts.group;
    let clock = WallClock::new();
    let mut frag = Fragmenter::new(me, opts.mtu);
    let mut reasm = Reassembler::new(opts.reassembly_ttl);
    let mut round: u64 = 0;
    let mut barrier_done = false;
    let mut malformed_seen: u64 = 0;
    let mut undecodable_seen: u64 = 0;
    let mut foreign_seen: u64 = 0;

    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let ev = match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(ev) => ev,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        match ev {
            Event::BarrierDone => barrier_done = true,
            Event::Tick => {
                if !barrier_done {
                    continue; // hold the round clock until the group exists
                }
                node.begin_round(Round(round));
                round += 1;
                net.rounds.fetch_add(1, Ordering::Relaxed);
                let evicted = reasm.evict_expired(clock.now());
                if evicted > 0 {
                    net.reassembly_evicted
                        .fetch_add(evicted as u64, Ordering::Relaxed);
                }
                if !flush(&mut node, &mut frag, &socket, &peers, me, evt_tx, net) {
                    break;
                }
                let status = hosted(&node, group).status();
                if !status.is_active() {
                    let _ = evt_tx.send(AppEvent::StatusChanged(status));
                    break;
                }
            }
            Event::Datagram(gram) => {
                let Some((from, frame)) = reasm.accept(gram, clock.now()) else {
                    // Partial transfer or malformed datagram; sync the
                    // malformed counter either way.
                    let m = reasm.malformed();
                    if m > malformed_seen {
                        net.malformed
                            .fetch_add(m - malformed_seen, Ordering::Relaxed);
                        malformed_seen = m;
                    }
                    continue;
                };
                net.frames_rx.fetch_add(1, Ordering::Relaxed);
                if node.on_frame(from, &frame).is_none() {
                    // Either the envelope/PDU was undecodable or the frame
                    // named a group this node does not host; reconcile both
                    // monotonic counters against the net stats.
                    let u = node.undecodable();
                    if u > undecodable_seen {
                        net.malformed
                            .fetch_add(u - undecodable_seen, Ordering::Relaxed);
                        undecodable_seen = u;
                    }
                    let fg = node.foreign_frames();
                    if fg > foreign_seen {
                        net.foreign_group_frames
                            .fetch_add(fg - foreign_seen, Ordering::Relaxed);
                        foreign_seen = fg;
                    }
                    continue;
                }
                // Round synchronization: the paper's model is synchronous
                // rounds, but independently started OS processes boot with
                // round 0. Decisions carry the group's subrun clock; a
                // process that is behind fast-forwards so its requests land
                // in the subrun the rest of the group is actually running.
                let group_subrun = hosted(&node, group).last_decision().subrun.0;
                let sync_round = 2 * (group_subrun + 1);
                if round < sync_round {
                    round = sync_round;
                }
                if !flush(&mut node, &mut frag, &socket, &peers, me, evt_tx, net) {
                    break;
                }
            }
            Event::Cmd(cmd) => match cmd {
                Cmd::Submit {
                    payload,
                    deps,
                    resp,
                } => {
                    let result = node
                        .submit(group, payload, &deps)
                        .map_err(|e| e.to_string());
                    let _ = resp.send(result);
                }
                Cmd::Status { resp } => {
                    let _ = resp.send(hosted(&node, group).status());
                }
                Cmd::Stats { resp } => {
                    let _ = resp.send(hosted(&node, group).stats());
                }
                Cmd::Snapshot { resp } => {
                    let _ = resp.send(hosted(&node, group).snapshot());
                }
                Cmd::Probe(f) => f(hosted(&node, group)),
                Cmd::Kill | Cmd::Shutdown => break,
            },
        }
    }
    // Whatever ended the driver ends the node: release the receiver and
    // ticker threads too.
    stop.store(true, Ordering::Relaxed);
}

/// The hosted group's engine (the runtime node always hosts exactly one).
fn hosted(node: &Node, group: GroupId) -> &Engine {
    node.engine(group).expect("runtime node hosts its group")
}

/// Drains node outputs onto the socket / event channel. Returns false if
/// the application side is gone.
fn flush(
    node: &mut Node,
    frag: &mut Fragmenter,
    socket: &UdpSocket,
    peers: &[SocketAddr],
    me: ProcessId,
    evt_tx: &Sender<AppEvent>,
    net: &NetCounters,
) -> bool {
    while let Some((group, out)) = node.poll_output() {
        match out {
            Output::Send { to, pdu } => {
                let frame = node.encode(group, &pdu);
                for gram in frag.split(&frame) {
                    let _ = socket.send_to(&gram, peers[to.index()]);
                    net.datagrams_tx.fetch_add(1, Ordering::Relaxed);
                }
            }
            Output::Broadcast { pdu } => {
                // Encode (with the group envelope) and fragment once;
                // receivers key reassembly by (src, xfer), so the same
                // fragments fan out to everyone.
                let frame = node.encode(group, &pdu);
                let grams = frag.split(&frame);
                for (i, addr) in peers.iter().enumerate() {
                    if i != me.index() {
                        for gram in &grams {
                            let _ = socket.send_to(gram, addr);
                            net.datagrams_tx.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            Output::Deliver { msg } => {
                if evt_tx.send(AppEvent::Delivered(msg)).is_err() {
                    return false;
                }
            }
            Output::Confirm { mid } => {
                if evt_tx.send(AppEvent::Confirmed(mid)).is_err() {
                    return false;
                }
            }
            Output::Discarded { mids } => {
                if evt_tx.send(AppEvent::Discarded(mids)).is_err() {
                    return false;
                }
            }
            Output::StatusChanged { status, .. } => {
                if evt_tx.send(AppEvent::StatusChanged(status)).is_err() {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_rejects_bad_configs() {
        let cfg = ProtocolConfig::new(3);
        let addr: SocketAddr = "127.0.0.1:0".parse().unwrap();
        // Wrong peer-list width.
        let err = spawn_member(
            ProcessId(0),
            addr,
            vec![addr; 2],
            cfg.clone(),
            NodeOptions::default(),
        )
        .err()
        .expect("must reject");
        assert!(matches!(err, GroupError::Rejected(_)), "{err}");
        // Member outside the group.
        let err = spawn_member(
            ProcessId(7),
            addr,
            vec![addr; 3],
            cfg.clone(),
            NodeOptions::default(),
        )
        .err()
        .expect("must reject");
        assert!(matches!(err, GroupError::Rejected(_)), "{err}");
        // Loss probability out of range.
        let err = spawn_member(
            ProcessId(0),
            addr,
            vec![addr; 3],
            cfg,
            NodeOptions::default().loss(1.5, 0),
        )
        .err()
        .expect("must reject");
        assert!(matches!(err, GroupError::Rejected(_)), "{err}");
    }

    #[test]
    fn hello_codec_roundtrip() {
        let h = hello(ProcessId(513));
        assert_eq!(parse_hello(&h), Some(ProcessId(513)));
        assert_eq!(parse_hello(&[HELLO, 1]), None, "short datagrams rejected");
        assert_eq!(parse_hello(&[0xD1, 0, 0]), None, "data tag is not a hello");
    }
}
