//! The harness's own protocols.  Each counts its node steps in its node
//! state, so the per-layer table can divide host time by work done without
//! asking an engine for a counter the `EngineControl` surface does not have.

use netsim_graph::NodeId;
use netsim_sim::{Protocol, RoundIo};

/// Dense gossip: for `rounds` rounds every node folds what it heard into its
/// accumulator and sends the accumulator to every neighbour.  `Copy` state
/// and a `u64` message, so everything measured belongs to the engine.
#[derive(Clone, Debug)]
pub struct Gossip {
    pub acc: u64,
    pub steps: u32,
    rounds_left: u32,
}

impl Gossip {
    pub fn new(value: u64, rounds: u32) -> Self {
        Gossip {
            acc: value,
            steps: 0,
            rounds_left: rounds,
        }
    }
}

impl Protocol for Gossip {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        self.steps += 1;
        for (from, &x) in io.inbox() {
            // Order-sensitive fold: a reordered inbox changes the checksum.
            self.acc = self
                .acc
                .rotate_left(5)
                .wrapping_add(x ^ from.index() as u64);
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            io.send_all(self.acc);
        }
    }

    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
}

/// Sparse token relay: a node that starts with a token sends it to one
/// neighbour in round 0; whoever receives a token folds it in and forwards
/// it to a neighbour picked from the token's own bits, until its hop budget
/// is spent.  A node acts only on its inbox (plus the round-0 boot), so the
/// protocol is frontier-safe without `wake_me`, and per round only the
/// token holders have anything to do.
#[derive(Clone, Debug)]
pub struct HopTokens {
    pub acc: u64,
    /// All steps this node took.
    pub steps: u32,
    /// Steps taken after round 0 with a non-empty inbox.  Under sparse
    /// stepping every step after the boot round is one of these.
    pub mail_steps: u32,
    /// The token this node injects in its first step: `hops << 32 | id`.
    start: Option<u64>,
}

impl HopTokens {
    pub fn new(v: NodeId, start_hops: Option<u32>) -> Self {
        let id = v.index() as u64;
        HopTokens {
            acc: id.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
            steps: 0,
            mail_steps: 0,
            start: start_hops.map(|hops| u64::from(hops) << 32 | (id & 0xffff_ffff)),
        }
    }
}

impl Protocol for HopTokens {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        self.steps += 1;
        if io.round() > 0 && !io.inbox().is_empty() {
            self.mail_steps += 1;
        }
        for (from, &token) in io.inbox() {
            let hops = token >> 32;
            let x = (token as u32)
                .wrapping_mul(0x9e37_79b9)
                .wrapping_add(from.index() as u32 | 1);
            self.acc = self.acc.wrapping_add(u64::from(x)).rotate_left(1);
            if hops > 0 {
                let next = io.neighbors().target(x as usize % io.degree());
                io.send(next, (hops - 1) << 32 | u64::from(x));
            }
        }
        if let Some(token) = self.start.take() {
            let next = io.neighbors().target(token as u32 as usize % io.degree());
            io.send(next, token);
        }
    }

    /// A holder is not done until it has injected its token, so the run
    /// cannot quiesce before round 0; afterwards the tokens in flight keep
    /// it alive.
    fn is_done(&self) -> bool {
        self.start.is_none()
    }
}

/// Wraps a library protocol to count its steps; everything else forwards.
#[derive(Clone, Debug)]
pub struct Counted<P> {
    pub inner: P,
    pub steps: u32,
}

impl<P> Counted<P> {
    pub fn new(inner: P) -> Self {
        Counted { inner, steps: 0 }
    }
}

impl<P: Protocol> Protocol for Counted<P> {
    type Msg = P::Msg;

    fn step(&mut self, io: &mut RoundIo<'_, P::Msg>) {
        self.steps += 1;
        self.inner.step(io);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn on_recover(&mut self) {
        self.inner.on_recover();
    }
}
