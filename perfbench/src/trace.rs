//! Span tracer for the traced run.
//!
//! A span wraps one call the benchmark makes into a layer's public API and
//! records its name, start, end and parent (the span open around it). Spans
//! nest: `SimNet::step` encloses the members' callbacks, which enclose the
//! engine, codec, overlay and frag calls. Each span's *self* time is its
//! duration minus the time its children cover; self time and self
//! allocations are summed per span name in memory. Spans of data PDUs carry
//! the message's mid, and a bounded sample of them is kept whole so a
//! message can be followed from submit to deliver.
//!
//! When tracing is off every entry point is a single predictable branch.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use urcgc_types::Mid;

use crate::alloc;

/// The layers of the stack, as named by the benchmark's metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own episode loop and bookkeeping.
    Bench,
    /// `urcgc-simnet` scheduler and fault filter.
    Simnet,
    /// `urcgc-types` wire encode/decode.
    Codec,
    /// `urcgc::Engine`.
    Engine,
    /// `urcgc::Node` multi-group façade.
    Node,
    /// `urcgc-overlay` `Disseminator`.
    Overlay,
    /// `urcgc-runtime` `Fragmenter`/`Reassembler`.
    Frag,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 7] = [
        Layer::Bench,
        Layer::Simnet,
        Layer::Codec,
        Layer::Engine,
        Layer::Node,
        Layer::Overlay,
        Layer::Frag,
    ];

    /// Metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Simnet => "simnet",
            Layer::Codec => "codec",
            Layer::Engine => "engine",
            Layer::Node => "node",
            Layer::Overlay => "overlay",
            Layer::Frag => "frag",
        }
    }
}

macro_rules! spans {
    ($($variant:ident => $name:literal, $layer:ident;)*) => {
        /// One instrumented call site kind.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Span { $($variant,)* }

        impl Span {
            /// Every span kind, in report order.
            pub const ALL: &'static [Span] = &[$(Span::$variant,)*];

            /// Metric name of the span (`<layer>.<call>`).
            pub fn name(self) -> &'static str {
                match self { $(Span::$variant => $name,)* }
            }

            /// The layer whose self time the span counts toward.
            pub fn layer(self) -> Layer {
                match self { $(Span::$variant => Layer::$layer,)* }
            }
        }
    };
}

spans! {
    Driver => "bench.driver", Bench;
    Step => "simnet.step", Simnet;
    Encode => "codec.encode", Codec;
    Decode => "codec.decode", Codec;
    Submit => "engine.submit", Engine;
    BeginRequest => "engine.begin_round.request", Engine;
    BeginDecide => "engine.begin_round.decide", Engine;
    OnData => "engine.on_pdu.data", Engine;
    OnRequest => "engine.on_pdu.request", Engine;
    OnDecision => "engine.on_pdu.decision", Engine;
    OnRecovery => "engine.on_pdu.recovery", Engine;
    Poll => "engine.poll_output", Engine;
    NodeSubmit => "node.submit", Node;
    NodeBeginRound => "node.begin_round", Node;
    NodeOnFrame => "node.on_frame", Node;
    NodePoll => "node.poll_output", Node;
    NodeEncode => "node.encode", Node;
    Broadcast => "overlay.broadcast", Overlay;
    RelayFrame => "overlay.on_frame", Overlay;
    SyncView => "overlay.sync_view", Overlay;
    Split => "frag.split", Frag;
    Accept => "frag.accept", Frag;
    Evict => "frag.evict_expired", Frag;
}

/// Per-span-name aggregate.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    /// Completed spans.
    pub calls: u64,
    /// Summed self time.
    pub self_ns: u64,
    /// Summed self allocations.
    pub self_allocs: u64,
}

/// One kept span of a sampled message.
#[derive(Clone, Debug)]
pub struct Sample {
    /// The span.
    pub span: Span,
    /// The member whose callback made the call.
    pub member: u16,
    /// The span open around it, if any.
    pub parent: Option<Span>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// The data message the span handled.
    pub mid: Mid,
}

/// Sampled messages: every this many sequence numbers of process 0.
const SAMPLE_EVERY: u64 = 64;
/// Cap on kept sample spans.
const SAMPLE_CAP: usize = 4096;

struct Open {
    span: Span,
    start: Instant,
    child_ns: u64,
    allocs_at_start: u64,
    child_allocs: u64,
}

struct Inner {
    origin: Instant,
    stack: Vec<Open>,
    agg: Vec<Agg>,
    samples: Vec<Sample>,
}

/// The tracer; see the module docs.
pub struct Tracer {
    on: bool,
    member: Cell<u16>,
    inner: RefCell<Inner>,
}

impl Tracer {
    /// A tracer that records spans when `on`, and does nothing otherwise.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            member: Cell::new(0),
            inner: RefCell::new(Inner {
                origin: Instant::now(),
                stack: Vec::with_capacity(16),
                agg: vec![Agg::default(); Span::ALL.len()],
                samples: Vec::new(),
            }),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Names the member whose callback the following spans run in.
    #[inline]
    pub fn set_member(&self, member: u16) {
        if self.on {
            self.member.set(member);
        }
    }

    /// Opens a span; pair with [`Tracer::exit`].
    #[inline]
    pub fn enter(&self, span: Span) {
        if self.on {
            self.inner.borrow_mut().stack.push(Open {
                span,
                start: Instant::now(),
                child_ns: 0,
                allocs_at_start: alloc::allocs(),
                child_allocs: 0,
            });
        }
    }

    /// Closes the innermost span. `mid` tags a span that handled a data
    /// message; sampled mids keep the whole span record.
    #[inline]
    pub fn exit(&self, mid: Option<Mid>) {
        if self.on {
            self.close(mid);
        }
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<R>(&self, span: Span, f: impl FnOnce() -> R) -> R {
        self.enter(span);
        let r = f();
        self.exit(None);
        r
    }

    fn close(&self, mid: Option<Mid>) {
        let end = Instant::now();
        let allocs = alloc::allocs();
        let mut inner = self.inner.borrow_mut();
        let open = inner
            .stack
            .pop()
            .expect("span exit without a matching enter");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let total_allocs = allocs - open.allocs_at_start;
        let agg = &mut inner.agg[open.span as usize];
        agg.calls += 1;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        agg.self_allocs += total_allocs.saturating_sub(open.child_allocs);
        let parent = inner.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.child_allocs += total_allocs;
            p.span
        });
        if let Some(mid) = mid {
            let sampled = mid.origin.0 == 0 && mid.seq % SAMPLE_EVERY == 1;
            if sampled && inner.samples.len() < SAMPLE_CAP {
                let origin = inner.origin;
                inner.samples.push(Sample {
                    span: open.span,
                    member: self.member.get(),
                    parent,
                    start_ns: open.start.duration_since(origin).as_nanos() as u64,
                    end_ns: end.duration_since(origin).as_nanos() as u64,
                    mid,
                });
            }
        }
    }

    /// Aggregate for one span name.
    pub fn agg(&self, span: Span) -> Agg {
        self.inner.borrow().agg[span as usize]
    }

    /// Summed self time of every span of `layer`.
    pub fn layer_ns(&self, layer: Layer) -> u64 {
        let inner = self.inner.borrow();
        Span::ALL
            .iter()
            .filter(|s| s.layer() == layer)
            .map(|&s| inner.agg[s as usize].self_ns)
            .sum()
    }

    /// Kept sample spans, in completion order.
    pub fn samples(&self) -> Vec<Sample> {
        self.inner.borrow().samples.clone()
    }
}
