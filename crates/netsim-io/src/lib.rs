//! # netsim-io
//!
//! The **real-socket backend**: runs the exact same [`Protocol`]
//! implementations the simulator runs, but over loopback UDP with the
//! [`netsim_sim::wire`] frame codec — point-to-point messages as unicast
//! frames between host sockets, each of the K collision channels as a
//! broadcast bus (every slot write is fanned out to every host, and each
//! host resolves idle/success/collision/erasure locally from the set of
//! writes it heard).
//!
//! The node set is partitioned across `H` *hosts* (one UDP socket each;
//! node `v` lives on host `v % H`).  Rounds are framed by
//! [`Frame::Barrier`] control frames carrying per-destination frame
//! counts, so a round is *self-delimiting*: a host knows round `r` is
//! complete exactly when it holds all `H` barriers plus every p2p and slot
//! frame the barriers promised — no timing assumptions, no ACKs.  This is
//! the same round-framing/quiescence-detection idiom as the in-process
//! [`lockstep`](netsim_sim::lockstep) adapter, lifted onto sockets.
//!
//! ## Determinism contract
//!
//! A wire run is **bit-identical** to the flat [`SyncEngine`](netsim_sim::SyncEngine) on the same
//! graph/channels/protocol/fault plan — states, per-round slot outcomes,
//! inbox orders, and the full [`CostAccount`] (pinned by the
//! `wire_conformance` integration suite).  The mechanisms:
//!
//! * inbox order: the simulator orders each inbox by sender index, then
//!   send order.  P2p frames carry a per-(host, round) staging sequence
//!   number and receivers sort arrivals by `(from, seq)`, which
//!   reconstructs exactly that order no matter how UDP reorders datagrams;
//! * slot resolution is order-independent (writer counts per channel), so
//!   each host resolves its own copy of every channel from the broadcast
//!   writes;
//! * faults: [`FaultPlan`] draws are pure functions of (seed, round, key),
//!   so every host runs a private full-size [`FaultSession`] replica and
//!   sees identical lifecycles, erasures, and drop coins with zero
//!   coordination traffic.  Message drops are applied at the sender (the
//!   frame is never transmitted) — the same set of messages the simulator
//!   would drop at its delivery boundary;
//! * cost: barriers carry staged/dropped counts, so every host reproduces
//!   the engine's *global* `CostAccount`, not a per-host shard of it.
//!
//! What is *not* deterministic: wall-clock timing, datagram order on the
//! wire, and `bytes_sent` if the frame layout changes between versions.
//!
//! ## Round shape and datagram layout
//!
//! A host runs a round the way the flat engine does: **stage the whole
//! round, then translate once**.  [`WireHost::begin_round`] steps every
//! owned node into one [`OutboxBuffer`] and then makes a single pass over
//! it, appending frames to one batch per destination host:
//!
//! 1. every `Slot` frame (channel writes, staging order), to every host;
//! 2. every `Lanes` frame (staging order), to every host;
//! 3. the `P2p` frames in staging order — `seq` is the staging index, so a
//!    message the fault plan drops keeps its number and is simply never
//!    encoded — each to the host owning its receiver;
//! 4. the `Barrier`, to every host.
//!
//! A batch leaves as one datagram when the round closes, or earlier each
//! time it reaches 60 000 bytes, so a quiet round is one datagram per
//! destination and a heavy one is a few.  **Receivers depend on none of
//! this**: frames are self-describing, completeness is counted from the
//! barriers, inboxes are sorted by `(from, seq)` and slot/lane resolution
//! is order-independent, so any interleaving or reordering of the same
//! frames yields the same round.  [`WireHost::finish_round`] closes the
//! round in O(traffic): arrivals land in one flat arena sorted by
//! `(to, from, seq)`, and only the nodes that received something get their
//! epoch-stamped inbox range rewritten — a node nothing arrived for is not
//! visited.  Every frame, self-delivery included, crosses the codec and a
//! socket.
//!
//! [`WireNet`] drives `H` in-process hosts from one thread (the fourth
//! [`EngineControl`] substrate, used by conformance and bench);
//! [`WireHost`] is the per-process building block the two-process
//! `wire_demo` binary uses directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::{Duration, Instant};

use netsim_graph::{Graph, NodeId};
use netsim_sim::wire::{Frame, WireMsg, HEADER_LEN, TRAILER_LEN};
use netsim_sim::{
    ChannelFold, ChannelId, ChannelSet, CostAccount, EngineBuilder, EngineControl, FaultPlan,
    FaultSession, Gate, Inbox, OutboxBuffer, Protocol, RoundIo, Tally,
};

/// Flush threshold for per-destination frame batches; comfortably under the
/// 65507-byte loopback datagram ceiling.
const FLUSH_BYTES: usize = 60_000;

/// How long [`WireHost::send_frames`] retries a `WouldBlock` send before
/// giving up.
const SEND_RETRY: Duration = Duration::from_secs(5);

/// The host that owns node `v` when the node set is partitioned across
/// `hosts` sockets: `v % hosts`.  Round-robin keeps every topology family's
/// per-host load balanced without knowing the graph.
pub fn owner_of(hosts: u16, v: NodeId) -> u16 {
    (v.index() % hosts as usize) as u16
}

/// Per-peer barrier bookkeeping for the round being collected.  One per
/// host for the life of the run: `heard` is the per-round presence flag, and
/// `sent_to` keeps its storage across rounds (see
/// [`Frame::decode_reusing`]).
#[derive(Clone, Debug, Default)]
struct BarrierInfo {
    heard: bool,
    staged: u32,
    dropped: u32,
    slot_frames: u32,
    lane_frames: u32,
    sent_to: Vec<u32>,
}

/// One socket's worth of a wire run: the nodes owned by this host, their
/// protocol states, and the stream machinery that keeps the host in
/// lockstep with its peers.  See the crate docs for the round protocol.
///
/// Most users want [`WireNet`]; `WireHost` is the per-process API for
/// genuinely multi-process runs (see the `wire_demo` binary).
pub struct WireHost<'g, P: Protocol>
where
    P::Msg: WireMsg,
{
    graph: &'g Graph,
    host: u16,
    hosts: u16,
    endpoint: Endpoint,
    channels: ChannelSet,
    /// Owned node ids, ascending; `nodes` is parallel.
    local: Vec<NodeId>,
    nodes: Vec<P>,
    session: Option<FaultSession>,
    /// The owned nodes' [`Tally`], kept current around each `step` and
    /// lifecycle transition and recounted wherever states or lifecycles
    /// change wholesale; its settled count is this host's quiescence share.
    tally: Tally,
    /// The whole round's staging: every owned node steps into this one
    /// buffer, then `begin_round` translates it to frames in one pass.
    outbox: OutboxBuffer<P::Msg>,
    round: u64,
    cost: CostAccount,
    /// Flat delivery arena for the round about to step: every owned node's
    /// inbox back to back, each in (sender index, sequence) order.
    inbox: Vec<(NodeId, P::Msg)>,
    /// Per local node: its `(start, len)` range of `inbox`, valid only in
    /// the round `inbox_epoch` names — a stale stamp *is* the empty inbox,
    /// so `finish_round` touches only the nodes that received something.
    inbox_ranges: Vec<(u32, u32)>,
    inbox_epoch: Vec<u64>,
    /// Raw p2p arrivals for the round being collected, as
    /// `(local slot of the receiver, sender, sequence, payload)`.  This and
    /// the two channel lists below are the frames heard so far, which
    /// [`round_complete`](Self::round_complete) checks against the barriers.
    arrivals: Vec<(u32, NodeId, u32, P::Msg)>,
    /// Slot writes heard this round (the broadcast bus contents).
    slot_writes: Vec<(ChannelId, NodeId, P::Msg)>,
    /// Lane words heard this round (already per-node OR-merged at senders).
    lane_writes: Vec<(ChannelId, NodeId, u64)>,
    /// Every channel's outcome of the last finished round and busy mask
    /// (the quiescence snapshot's), plus the per-channel accounts.  Slot
    /// resolution is replicated identically on every host from the broadcast
    /// frames, so each host's per-channel accounts equal the simulator's
    /// global ones, like `cost`.
    fold: ChannelFold<P::Msg>,
    barriers: Vec<BarrierInfo>,
    /// The `sent_to` table of the barrier this host is about to send.
    sent_to: Vec<u32>,
    /// Storage for the next decoded barrier's `sent_to` table.
    spare_sent_to: Vec<u32>,
    /// Frames that belong to a round we have not finished collecting yet.
    pending: Vec<Frame<P::Msg>>,
    /// `pending`'s double buffer: `finish_round` swaps the two so replaying
    /// early arrivals keeps both capacities.
    replay: Vec<Frame<P::Msg>>,
    hello_seen: Vec<bool>,
    /// Latest known settled (done or fault-exempt) count per host.
    settled_remote: Vec<u32>,
    /// Once a barrier from host `h` has been heard, late `Hello` resends
    /// from `h` may no longer regress `settled_remote[h]`.
    settled_from_barrier: Vec<bool>,
    /// Whether `begin_round` has run for the current round (collection in
    /// progress).
    in_round: bool,
    /// Global in-flight message count after the last finished round.
    q_inflight: u64,
    recv_buf: Box<[u8]>,
}

impl<'g, P: Protocol> WireHost<'g, P>
where
    P::Msg: WireMsg,
{
    /// Binds a host at `bind_addr` (use `"127.0.0.1:0"` for an ephemeral
    /// in-process port) owning every node `v` of `graph` with
    /// `v % hosts == host`.  `init` is called for owned nodes in ascending
    /// id order.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] if `hosts == 0`, `host >= hosts`, or
    /// the channel set's attachment table does not cover the graph (`K` and
    /// the masks themselves are valid by [`ChannelSet`]'s construction);
    /// otherwise whatever binding the socket returns.
    pub fn bind<A: ToSocketAddrs, F: FnMut(NodeId) -> P>(
        graph: &'g Graph,
        channels: ChannelSet,
        host: u16,
        hosts: u16,
        bind_addr: A,
        mut init: F,
    ) -> io::Result<Self> {
        if hosts == 0 {
            return Err(invalid_input("at least one host required".into()));
        }
        if host >= hosts {
            return Err(invalid_input(format!(
                "host index {host} out of range 0..{hosts}"
            )));
        }
        if let Some(len) = channels.table_len().filter(|&l| l != graph.node_count()) {
            return Err(invalid_input(format!(
                "channel attachment table covers {len} nodes, graph has {}",
                graph.node_count()
            )));
        }
        let socket = UdpSocket::bind(bind_addr)?;
        socket.set_nonblocking(true)?;
        // `host, host + hosts, ..`: exactly the nodes `owner_of` maps here,
        // from an exact-size iterator so the table is one allocation.
        let local: Vec<NodeId> = (host as usize..graph.node_count())
            .step_by(hosts as usize)
            .map(NodeId)
            .collect();
        let nodes: Vec<P> = local.iter().map(|&v| init(v)).collect();
        let owned = local.iter().map(|v| v.index()).zip(&nodes);
        let tally = Tally::recount(None, owned, P::is_done);
        let fold = ChannelFold::new(channels.channels());
        Ok(WireHost {
            graph,
            host,
            hosts,
            endpoint: Endpoint {
                socket,
                peers: Vec::new(),
                bufs: vec![Vec::new(); hosts as usize],
                bytes_sent: 0,
            },
            channels,
            inbox: Vec::new(),
            inbox_ranges: vec![(0, 0); local.len()],
            inbox_epoch: vec![0; local.len()],
            arrivals: Vec::new(),
            local,
            nodes,
            session: None,
            tally,
            outbox: OutboxBuffer::new(),
            round: 0,
            cost: CostAccount::default(),
            slot_writes: Vec::new(),
            lane_writes: Vec::new(),
            fold,
            barriers: vec![BarrierInfo::default(); hosts as usize],
            sent_to: vec![0; hosts as usize],
            spare_sent_to: Vec::new(),
            pending: Vec::new(),
            replay: Vec::new(),
            hello_seen: vec![false; hosts as usize],
            settled_remote: vec![0; hosts as usize],
            settled_from_barrier: vec![false; hosts as usize],
            in_round: false,
            q_inflight: 0,
            recv_buf: vec![0u8; 65536].into_boxed_slice(),
        })
    }

    /// The socket address this host is listening on.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.endpoint.socket.local_addr()
    }

    /// Installs the full peer address table, indexed by host id (this
    /// host's own address included).  Must be called before any traffic.
    pub fn connect(&mut self, peers: Vec<SocketAddr>) {
        assert_eq!(
            peers.len(),
            self.hosts as usize,
            "peer table must cover all {} hosts",
            self.hosts
        );
        self.endpoint.peers = peers;
    }

    /// Installs a deterministic [`FaultPlan`]; every host of a run must
    /// install the same plan (it is replicated, not coordinated).  Must be
    /// called before round 0.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert_eq!(self.round, 0, "fault plan must be installed before round 0");
        self.session = Some(FaultSession::new(plan, self.graph.node_count()));
        let owned = self.local.iter().map(|v| v.index()).zip(&self.nodes);
        self.tally = Tally::recount(self.session.as_ref(), owned, P::is_done);
    }

    /// The live fault session, when a plan is installed.
    pub fn fault_session(&self) -> Option<&FaultSession> {
        self.session.as_ref()
    }

    /// Number of owned nodes that are done or fault-exempt right now — this
    /// host's contribution to the distributed quiescence condition.
    pub fn local_settled(&self) -> u32 {
        self.tally.settled() as u32
    }

    /// Broadcasts a [`Frame::Hello`] to every peer (self included).
    /// Resend until [`ready`](Self::ready); late duplicates are harmless.
    pub fn send_hello(&mut self) -> io::Result<()> {
        let hello: Frame<P::Msg> = Frame::Hello {
            host: self.host,
            hosts: self.hosts,
            nodes: self.graph.node_count() as u32,
            k: self.channels.channels(),
            settled: self.local_settled(),
        };
        self.endpoint.broadcast(&hello)?;
        self.endpoint.flush_all()
    }

    /// `true` once a `Hello` from every host (self included) has been
    /// heard, i.e. the pre-round-0 handshake is complete.
    pub fn ready(&self) -> bool {
        self.hello_seen.iter().all(|&b| b)
    }

    /// Drains the socket, decoding and dispatching every received frame.
    /// Non-blocking: returns once the socket would block.
    pub fn poll(&mut self) -> io::Result<()> {
        loop {
            let len = match self.endpoint.socket.recv_from(&mut self.recv_buf) {
                Ok((len, _src)) => len,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            };
            let mut off = 0;
            while off < len {
                let remaining = len - off;
                if remaining < HEADER_LEN + TRAILER_LEN {
                    return Err(bad_frame("datagram tail shorter than a frame header"));
                }
                let body = u32::from_le_bytes(self.recv_buf[off + 4..off + 8].try_into().unwrap())
                    as usize;
                let frame_len = HEADER_LEN + body + TRAILER_LEN;
                if frame_len > remaining {
                    return Err(bad_frame("frame length exceeds datagram"));
                }
                let frame = Frame::decode_reusing(
                    &self.recv_buf[off..off + frame_len],
                    &mut self.spare_sent_to,
                )
                .map_err(|e| bad_frame(&format!("undecodable frame: {e}")))?;
                off += frame_len;
                self.dispatch(frame)?;
            }
        }
    }

    fn dispatch(&mut self, frame: Frame<P::Msg>) -> io::Result<()> {
        match frame {
            Frame::Hello {
                host,
                hosts,
                nodes,
                k,
                settled,
            } => {
                if hosts != self.hosts
                    || nodes as usize != self.graph.node_count()
                    || k != self.channels.channels()
                    || host >= self.hosts
                {
                    return Err(bad_frame("hello does not match this run's shape"));
                }
                self.hello_seen[host as usize] = true;
                if !self.settled_from_barrier[host as usize] {
                    self.settled_remote[host as usize] = settled;
                }
                Ok(())
            }
            Frame::Barrier { host, .. } if host >= self.hosts => {
                Err(bad_frame("barrier from out-of-range host"))
            }
            frame => {
                let round = frame.round();
                if round > self.round {
                    self.pending.push(frame);
                    return Ok(());
                }
                if round < self.round {
                    return Err(bad_frame("stale frame for an already-finished round"));
                }
                match frame {
                    Frame::P2p {
                        from,
                        to,
                        seq,
                        payload,
                        ..
                    } => {
                        if owner_of(self.hosts, to) != self.host
                            || to.index() >= self.graph.node_count()
                            || from.index() >= self.graph.node_count()
                        {
                            return Err(bad_frame("p2p frame misrouted"));
                        }
                        let slot = to.index() / self.hosts as usize;
                        self.arrivals.push((slot as u32, from, seq, payload));
                    }
                    Frame::Slot { chan, from, .. } | Frame::Lanes { chan, from, .. }
                        if chan.0 >= self.channels.channels()
                            || from.index() >= self.graph.node_count() =>
                    {
                        return Err(bad_frame("channel frame out of range"));
                    }
                    Frame::Slot {
                        chan,
                        from,
                        payload,
                        ..
                    } => self.slot_writes.push((chan, from, payload)),
                    Frame::Lanes {
                        chan, from, word, ..
                    } => self.lane_writes.push((chan, from, word)),
                    Frame::Barrier {
                        host,
                        settled,
                        staged,
                        dropped,
                        slot_frames,
                        lane_frames,
                        sent_to,
                        ..
                    } => {
                        if sent_to.len() != self.hosts as usize {
                            return Err(bad_frame("barrier sent_to table has wrong width"));
                        }
                        self.settled_remote[host as usize] = settled;
                        self.settled_from_barrier[host as usize] = true;
                        // The table this one displaces is the next decode's
                        // storage, which closes the loop: a steady-state
                        // barrier allocates nothing.
                        let stale = std::mem::replace(
                            &mut self.barriers[host as usize],
                            BarrierInfo {
                                heard: true,
                                staged,
                                dropped,
                                slot_frames,
                                lane_frames,
                                sent_to,
                            },
                        );
                        self.spare_sent_to = stale.sent_to;
                    }
                    Frame::Hello { .. } => unreachable!("handled above"),
                }
                Ok(())
            }
        }
    }

    /// Executes the *step* half of the current round: applies the fault
    /// plan's lifecycle transitions, steps every operational owned node
    /// against last round's delivered inbox and slot outcomes into the one
    /// staging buffer, then translates the staged round to frames in a
    /// single pass — slot, lane, p2p, barrier — and transmits them.
    ///
    /// Afterwards, [`poll`](Self::poll) until
    /// [`round_complete`](Self::round_complete), then
    /// [`finish_round`](Self::finish_round).
    pub fn begin_round(&mut self) -> io::Result<()> {
        assert!(
            !self.in_round,
            "begin_round called twice without finish_round"
        );
        assert!(
            !self.endpoint.peers.is_empty(),
            "connect() must install the peer table first"
        );
        let round = self.round;

        // 1. Lifecycle transitions of the owned nodes (recovery hooks fire
        //    on the way to Booting) and the crashed-round charge, which uses
        //    the post-transition lifecycles of every node.
        if let Some(session) = self.session.as_mut() {
            let (host, hosts) = (self.host, self.hosts);
            let visit = |v, _| (owner_of(hosts, v) == host).then_some(v.index() / hosts as usize);
            let (is_done, on_recover) = (P::is_done, P::on_recover);
            self.tally
                .apply_faults(session, round, &mut self.nodes, visit, is_done, on_recover);
            session.charge_round(&mut self.cost);
        }

        // 2. Step owned operational nodes in ascending id order, all into
        //    the one staging buffer.  A downed node's delivered inbox is
        //    never read and goes stale with its epoch stamp — the simulator
        //    drops such payloads unread the same way.
        let mut gate = Gate::new(self.session.as_ref(), &mut self.tally);
        let (slots, lanes) = (self.fold.slots(), self.fold.lanes());
        for (slot, (&v, node)) in self.local.iter().zip(&mut self.nodes).enumerate() {
            if !gate.admits(v.index()) {
                continue;
            }
            let inbox = if self.inbox_epoch[slot] == round {
                let (start, len) = self.inbox_ranges[slot];
                &self.inbox[start as usize..(start + len) as usize]
            } else {
                &[]
            };
            let mut io = RoundIo::detached_multi(
                v,
                round,
                self.graph.neighbors(v),
                Inbox::direct(inbox),
                slots,
                &mut self.outbox,
            )
            .with_attachment(self.channels.mask(v))
            .with_lanes(lanes);
            let was_done = node.is_done();
            node.step(&mut io);
            gate.book(was_done, node.is_done());
        }
        gate.finish();
        let owned = self.local.iter().map(|v| v.index()).zip(&self.nodes);
        debug_assert_eq!(
            self.tally,
            Tally::recount(self.session.as_ref(), owned, P::is_done)
        );

        // 3. Translate the staged round.  Channel writes first (the send
        //    drain retires the payload epoch they point into): each becomes
        //    a Slot frame on the broadcast bus.
        let tx = &mut self.endpoint;
        let (mut sent, mut slot_frames, mut lane_frames) = (Ok(()), 0u32, 0u32);
        let mut bus = |frame: &Frame<P::Msg>| {
            if sent.is_ok() {
                sent = tx.broadcast(frame);
            }
        };
        self.outbox.take_channel_writes(|chan, from, payload| {
            slot_frames += 1;
            bus(&Frame::Slot {
                round,
                chan,
                from,
                payload,
            });
        });
        // Lane words ride the same bus, one frame per (node, channel);
        // receivers OR them channel-wise.
        self.outbox.take_lane_writes(|chan, from, word| {
            lane_frames += 1;
            bus(&Frame::Lanes {
                round,
                chan,
                from,
                word,
            });
        });
        sent?;
        // Sends in staging order, which is the order the per-(host, round)
        // sequence numbers count; a dropped message keeps its number and is
        // never transmitted.
        let staged = self.outbox.len() as u32;
        let mut dropped: u32 = 0;
        self.sent_to.fill(0);
        let sends = self.outbox.drain_sends_with_sender();
        for (seq, (to, from, payload)) in sends.enumerate() {
            if self
                .session
                .as_ref()
                .is_some_and(|s| s.drops_message(round, from, to))
            {
                dropped += 1;
                continue;
            }
            let dest = owner_of(self.hosts, to) as usize;
            self.sent_to[dest] += 1;
            let frame = Frame::P2p {
                round,
                from,
                to,
                seq: seq as u32,
                payload,
            };
            tx.push(dest, &frame)?;
        }
        // The wire backend always steps dense; explicit wakeups are a
        // sparse-frontier hint and carry no cost, so they are dropped.
        self.outbox.take_wakes(|_| {});

        // 4. Close the round with a barrier to every host (self included);
        //    the frame borrows the pooled table for the encode.
        let barrier: Frame<P::Msg> = Frame::Barrier {
            round,
            host: self.host,
            settled: self.tally.settled() as u32,
            staged,
            dropped,
            slot_frames,
            lane_frames,
            sent_to: std::mem::take(&mut self.sent_to),
        };
        let sent = tx.broadcast(&barrier);
        if let Frame::Barrier { sent_to, .. } = barrier {
            self.sent_to = sent_to;
        }
        sent?;
        tx.flush_all()?;
        self.in_round = true;
        Ok(())
    }

    /// `true` once every frame of the current round has been received: all
    /// `hosts` barriers, plus every p2p frame addressed to this host and
    /// every broadcast slot frame the barriers promised.
    pub fn round_complete(&self) -> bool {
        if !self.in_round || self.barriers.iter().any(|b| !b.heard) {
            return false;
        }
        let host = self.host as usize;
        self.arrivals.len() as u64 == self.barrier_total(|b| b.sent_to[host])
            && self.slot_writes.len() as u64 == self.barrier_total(|b| b.slot_frames)
            && self.lane_writes.len() as u64 == self.barrier_total(|b| b.lane_frames)
    }

    /// `f` summed over the round's barriers, one per host.
    fn barrier_total(&self, f: impl Fn(&BarrierInfo) -> u32) -> u64 {
        self.barriers.iter().map(|b| u64::from(f(b))).sum()
    }

    /// Resolves the round from the collected frames: channel outcomes (with
    /// the fault plan's erasures), global cost accounting, next-round inbox
    /// construction, and the quiescence snapshot.  Advances the round
    /// counter and re-dispatches any frames that arrived early for the next
    /// round.
    ///
    /// # Panics
    ///
    /// Panics unless [`round_complete`](Self::round_complete).
    pub fn finish_round(&mut self) {
        assert!(
            self.round_complete(),
            "finish_round before round completeness"
        );
        let round = self.round;

        // Global cost: every host applies the same totals, so each local
        // CostAccount equals the engine's global one.
        let staged = self.barrier_total(|b| b.staged);
        let dropped = self.barrier_total(|b| b.dropped);
        let inflight = self.barrier_total(|b| b.sent_to.iter().sum());
        self.cost.add_messages(staged);
        if dropped > 0 {
            self.cost.add_dropped_messages(dropped);
        }

        // Channel fold: writer counts per channel decide the outcome
        // (order-independent) and a sole writer's payload is the winner;
        // lane words OR together.  The resolve boundary proper — erasure and
        // corruption draws keyed on the executed round, classification,
        // charges — is the engines' shared core.
        for (chan, from, msg) in self.slot_writes.drain(..) {
            self.fold.write(chan, from, msg, drop);
        }
        for (chan, _, word) in self.lane_writes.drain(..) {
            self.fold.write_lanes(chan, word);
        }
        let session = self.session.as_ref();
        self.fold.settle(session, round, &mut self.cost, drop);

        // Deliver: sort the arrivals by (receiver, sender index, staging
        // sequence) — the simulator's inbox order, independent of datagram
        // order — and stamp the range of each receiver that got something.
        // O(traffic): a node nothing arrived for is not visited.
        let next = round + 1;
        self.arrivals
            .sort_unstable_by_key(|&(slot, from, seq, _)| (slot, from.index(), seq));
        self.inbox.clear();
        for (slot, from, _, msg) in self.arrivals.drain(..) {
            let slot = slot as usize;
            if self.inbox_epoch[slot] != next {
                self.inbox_epoch[slot] = next;
                self.inbox_ranges[slot] = (self.inbox.len() as u32, 0);
            }
            self.inbox_ranges[slot].1 += 1;
            self.inbox.push((from, msg));
        }

        // Quiescence snapshot for the boundary before the next round.
        self.q_inflight = inflight;

        // Reset collection state and admit early arrivals for round + 1.
        for b in self.barriers.iter_mut() {
            b.heard = false;
        }
        self.round += 1;
        self.in_round = false;
        let mut replay = std::mem::replace(&mut self.pending, std::mem::take(&mut self.replay));
        for frame in replay.drain(..) {
            self.dispatch(frame)
                .expect("re-dispatch of a buffered frame cannot fail");
        }
        self.replay = replay;
    }

    /// The distributed quiescence condition, evaluated at a round boundary:
    /// every node in the run is done or fault-exempt, nothing is in flight,
    /// and every channel slot was idle.  Mirrors `EngineControl::is_quiescent`
    /// exactly (given fresh settled counts, which barriers provide).
    pub fn is_quiescent(&self) -> bool {
        let settled: u64 = self.settled_remote.iter().map(|&s| s as u64).sum();
        settled == self.graph.node_count() as u64 && self.q_inflight == 0 && self.fold.busy() == 0
    }

    /// Overrides the cached settled count for host `h`.  This is the
    /// in-process control plane used by [`WireNet`] after
    /// [`update_nodes`](Self::update_nodes) edits states between rounds
    /// (barriers refresh the counts again as soon as a round runs).
    pub fn note_settled(&mut self, h: u16, settled: u32) {
        self.settled_remote[h as usize] = settled;
    }

    /// Replaces the per-node channel attachment (between rounds only), same
    /// contract as `EngineControl::reattach`.
    pub fn reattach(&mut self, masks: &[u64]) {
        assert!(!self.in_round, "reattach mid-round");
        assert_eq!(masks.len(), self.graph.node_count(), "one mask per node");
        self.channels.reattach(masks);
    }

    /// Runs `f` over every owned node (between rounds only), same contract
    /// as `EngineControl::update_nodes`.  The own-host settled count refreshes
    /// immediately; peers learn of it via [`WireNet`]'s control plane or
    /// the next barrier.
    pub fn update_nodes<F: FnMut(NodeId, &mut P)>(&mut self, mut f: F) {
        assert!(!self.in_round, "update_nodes mid-round");
        for (&v, node) in self.local.iter().zip(&mut self.nodes) {
            f(v, node);
        }
        let owned = self.local.iter().map(|v| v.index()).zip(&self.nodes);
        self.tally = Tally::recount(self.session.as_ref(), owned, P::is_done);
        self.settled_remote[self.host as usize] = self.local_settled();
        self.settled_from_barrier[self.host as usize] = true;
    }

    /// The owned node `v`, if this host owns it.
    pub fn node_local(&self, v: NodeId) -> Option<&P> {
        (owner_of(self.hosts, v) == self.host).then(|| &self.nodes[v.index() / self.hosts as usize])
    }

    /// Owned node ids, ascending.
    pub fn local_ids(&self) -> &[NodeId] {
        &self.local
    }

    /// Consumes the host, returning its owned `(id, state)` pairs in
    /// ascending id order.
    pub fn into_nodes(self) -> Vec<(NodeId, P)> {
        self.local.into_iter().zip(self.nodes).collect()
    }

    /// The global cost account (identical on every host of a run).
    pub fn cost(&self) -> &CostAccount {
        &self.cost
    }

    /// Per-channel breakdown of the channel-scoped counters of
    /// [`cost`](Self::cost); replicated identically on every host, like the
    /// global account.
    pub fn channel_costs(&self) -> &[CostAccount] {
        self.fold.costs()
    }

    /// Rounds finished so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Total frame bytes this host has pushed onto the wire.
    pub fn bytes_sent(&self) -> u64 {
        self.endpoint.bytes_sent
    }

    /// This host's index.
    pub fn host(&self) -> u16 {
        self.host
    }

    /// Total hosts in the run.
    pub fn hosts(&self) -> u16 {
        self.hosts
    }
}

fn bad_frame(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn invalid_input(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// A host's socket, the peer table, and one outgoing datagram batch per
/// destination host.
struct Endpoint {
    socket: UdpSocket,
    peers: Vec<SocketAddr>,
    bufs: Vec<Vec<u8>>,
    bytes_sent: u64,
}

impl Endpoint {
    /// Appends `frame` to `dest`'s batch, sending the batch once it reaches
    /// [`FLUSH_BYTES`].
    fn push<M: WireMsg>(&mut self, dest: usize, frame: &Frame<M>) -> io::Result<()> {
        frame.encode(&mut self.bufs[dest]);
        if self.bufs[dest].len() >= FLUSH_BYTES {
            self.flush(dest)?;
        }
        Ok(())
    }

    /// [`push`](Self::push) to every host, self included.
    fn broadcast<M: WireMsg>(&mut self, frame: &Frame<M>) -> io::Result<()> {
        (0..self.bufs.len()).try_for_each(|dest| self.push(dest, frame))
    }

    /// Sends (and clears) the batched frames for `dest`, retrying transient
    /// `WouldBlock` for up to [`SEND_RETRY`].
    fn flush(&mut self, dest: usize) -> io::Result<()> {
        let buf = &mut self.bufs[dest];
        if buf.is_empty() {
            return Ok(());
        }
        let deadline = Instant::now() + SEND_RETRY;
        loop {
            match self.socket.send_to(buf, self.peers[dest]) {
                Ok(_) => break,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "UDP send blocked for too long",
                        ));
                    }
                    std::thread::yield_now();
                }
                Err(e) => return Err(e),
            }
        }
        self.bytes_sent += buf.len() as u64;
        buf.clear();
        Ok(())
    }

    fn flush_all(&mut self) -> io::Result<()> {
        (0..self.bufs.len()).try_for_each(|dest| self.flush(dest))
    }
}

/// `H` wire hosts over loopback UDP, driven from one thread through
/// [`EngineControl`] like every other substrate — built by
/// [`from_builder`](Self::from_builder), no inherent driving surface of its
/// own.  Every message still crosses a real socket; only the scheduling is
/// in-process.  This is the conformance and bench harness; the `wire_demo`
/// binary shows the genuinely multi-process form.
pub struct WireNet<'g, P: Protocol>
where
    P::Msg: WireMsg,
{
    hosts: Vec<WireHost<'g, P>>,
    /// Per-round completeness deadline before the harness declares the run
    /// wedged (loopback frames either arrive or are gone; there is no
    /// retransmit layer).
    round_timeout: Duration,
}

impl<'g, P: Protocol> WireNet<'g, P>
where
    P::Msg: WireMsg,
{
    /// Builds `hosts` hosts from a shared [`EngineBuilder`] description —
    /// graph, [`ChannelSet`], fault plan (replicated on every host) — binds
    /// their loopback sockets, and completes the `Hello` handshake.  The
    /// builder's sparse flag is accepted and ignored (wire hosts step dense
    /// by construction; outcomes are pinned identical either way for
    /// frontier-safe protocols).
    ///
    /// # Panics
    ///
    /// Panics on socket errors (ephemeral loopback binds do not fail in
    /// practice) or if the handshake cannot complete.
    pub fn from_builder<F: FnMut(NodeId) -> P>(
        builder: &EngineBuilder<'g>,
        hosts: u16,
        mut init: F,
    ) -> Self {
        let channels = builder.channel_set();
        let mut built: Vec<WireHost<'g, P>> = (0..hosts)
            .map(|h| {
                let addr = "127.0.0.1:0";
                WireHost::bind(builder.graph(), channels.clone(), h, hosts, addr, &mut init)
                    .expect("binding a loopback wire host")
            })
            .collect();
        let peers: Vec<SocketAddr> = built
            .iter()
            .map(|h| h.local_addr().expect("local_addr"))
            .collect();
        for h in built.iter_mut() {
            h.connect(peers.clone());
        }
        let mut net = WireNet {
            hosts: built,
            round_timeout: Duration::from_secs(10),
        };
        let deadline = Instant::now() + net.round_timeout;
        while !net.hosts.iter().all(|h| h.ready()) {
            assert!(Instant::now() < deadline, "wire handshake wedged");
            for h in net.hosts.iter_mut() {
                h.send_hello().expect("hello");
            }
            net.pump();
        }
        if let Some(plan) = builder.plan() {
            for h in net.hosts.iter_mut() {
                h.set_fault_plan(plan.clone());
            }
            net.sync_settled();
        }
        net
    }

    fn pump(&mut self) {
        for h in self.hosts.iter_mut() {
            h.poll().expect("polling a loopback socket");
        }
    }

    /// In-process settled-count refresh: after the fault plan is installed
    /// or `update_nodes` ran, every host learns every other host's current
    /// count without waiting for the next barrier.
    fn sync_settled(&mut self) {
        let counts: Vec<u32> = self.hosts.iter().map(|h| h.local_settled()).collect();
        for h in self.hosts.iter_mut() {
            for (j, &s) in counts.iter().enumerate() {
                h.note_settled(j as u16, s);
            }
        }
    }

    /// Total frame bytes pushed onto the wire across all hosts.
    pub fn bytes_sent(&self) -> u64 {
        self.hosts.iter().map(|h| h.bytes_sent()).sum()
    }

    /// Number of hosts.
    pub fn host_count(&self) -> u16 {
        self.hosts.len() as u16
    }

    /// Consumes the net, returning every node's final state in node-id
    /// order (the same shape as `SyncEngine::into_parts().0`).
    pub fn into_nodes(self) -> Vec<P> {
        let mut all: Vec<(NodeId, P)> = self
            .hosts
            .into_iter()
            .flat_map(WireHost::into_nodes)
            .collect();
        all.sort_unstable_by_key(|(v, _)| v.index());
        all.into_iter().map(|(_, p)| p).collect()
    }
}

/// The wire substrate on the engine surface.  Every host replicates the
/// simulator's global accounting, fault session and quiescence view, so
/// host 0's copy is the engine's and no reconciliation is needed.
impl<'g, P: Protocol> EngineControl<P> for WireNet<'g, P>
where
    P::Msg: WireMsg,
{
    /// Step + transmit on every host, pump the sockets until every host has
    /// collected the complete round, resolve.
    ///
    /// # Panics
    ///
    /// Panics if the round cannot complete within the harness timeout
    /// (frames lost to socket-buffer overflow — raise the flush threshold
    /// or shrink the round) or on socket errors.
    fn step_round(&mut self) {
        for h in self.hosts.iter_mut() {
            h.begin_round().expect("begin_round");
        }
        let deadline = Instant::now() + self.round_timeout;
        loop {
            self.pump();
            if self.hosts.iter().all(|h| h.round_complete()) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "wire round {} wedged: a host is missing frames",
                self.hosts[0].round()
            );
        }
        for h in self.hosts.iter_mut() {
            h.finish_round();
        }
        debug_assert!(
            self.hosts.windows(2).all(|w| w[0].cost() == w[1].cost()),
            "hosts disagree on the global cost account"
        );
    }

    fn round(&self) -> u64 {
        self.hosts[0].round()
    }

    fn is_quiescent(&self) -> bool {
        self.hosts[0].is_quiescent()
    }

    fn cost(&self) -> CostAccount {
        *self.hosts[0].cost()
    }

    fn channel_costs(&self) -> Vec<CostAccount> {
        self.hosts[0].channel_costs().to_vec()
    }

    fn channel_count(&self) -> u16 {
        self.hosts[0].channels.channels()
    }

    fn reattach(&mut self, masks: &[u64]) {
        for h in self.hosts.iter_mut() {
            h.reattach(masks);
        }
    }

    /// Each host covers its own nodes.
    fn update_nodes(&mut self, f: &mut dyn FnMut(NodeId, &mut P)) {
        for h in self.hosts.iter_mut() {
            h.update_nodes(&mut *f);
        }
        self.sync_settled();
    }

    /// On whichever host owns `v`.
    fn node(&self, v: NodeId) -> &P {
        let h = owner_of(self.hosts.len() as u16, v);
        self.hosts[h as usize]
            .node_local(v)
            .expect("owner host holds the node")
    }

    fn fault_session(&self) -> Option<&FaultSession> {
        self.hosts[0].fault_session()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_graph::generators;
    use netsim_sim::protocols::ChannelShardedSum;

    fn bind_kind(g: &Graph, channels: ChannelSet, host: u16, hosts: u16) -> io::ErrorKind {
        let n = g.node_count();
        WireHost::bind(g, channels, host, hosts, "127.0.0.1:0", |v| {
            ChannelShardedSum::new(v, n, 1, 0)
        })
        .map(|_| ())
        .expect_err("a misdescribed run must not bind")
        .kind()
    }

    #[test]
    fn bind_rejects_zero_hosts() {
        let g = generators::ring(8);
        assert_eq!(
            bind_kind(&g, ChannelSet::single(), 0, 0),
            io::ErrorKind::InvalidInput
        );
    }

    #[test]
    fn bind_rejects_host_index_out_of_range() {
        let g = generators::ring(8);
        assert_eq!(
            bind_kind(&g, ChannelSet::single(), 2, 2),
            io::ErrorKind::InvalidInput
        );
    }

    #[test]
    fn bind_rejects_channel_table_not_covering_the_graph() {
        let g = generators::ring(8);
        let short = ChannelSet::from_masks(1, vec![1; 7]);
        assert_eq!(bind_kind(&g, short, 0, 2), io::ErrorKind::InvalidInput);
    }
}
