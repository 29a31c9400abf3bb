//! Compact binary wire format for the real-I/O backend (`netsim-io`).
//!
//! Everything a round exchanges between hosts is one of five frame kinds:
//!
//! | kind | frame | carries |
//! |------|-------|---------|
//! | 1 | [`Frame::P2p`] | a point-to-point message for one edge |
//! | 2 | [`Frame::Slot`] | one node's write onto one collision channel |
//! | 3 | [`Frame::Barrier`] | end-of-round control: counts that let every host detect round completeness and reproduce the engine's global cost accounting |
//! | 4 | [`Frame::Hello`] | startup handshake: host identity + initial done count |
//! | 5 | [`Frame::Lanes`] | one node's bit-parallel lane word on one channel; receivers OR all words per channel |
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! +--------+---------+------+----------+--------···--------+---------+
//! | magic  | version | kind | body_len |       body        |  crc32  |
//! | u16    | u8      | u8   | u32      |  body_len bytes   |  u32    |
//! +--------+---------+------+----------+--------···--------+---------+
//! ```
//!
//! The CRC-32 (IEEE) trailer covers the header *and* body.  Decoding is
//! strict: bad magic/version/kind, a length field that disagrees with the
//! buffer, trailing bytes, a checksum mismatch, or a payload that does not
//! parse all produce a [`WireError`] — `decode` never panics and never reads
//! past the buffer.  `wire_codec_props` pins `decode(encode(f)) == f` and
//! no-panic on arbitrary bytes.
//!
//! Message payloads go through the [`WireMsg`] trait, the wire-facing
//! sibling of [`Protocol::Msg`](crate::node::Protocol): a protocol is
//! runnable on the socket backend iff its message type implements it.

use crate::channel::ChannelId;
use netsim_graph::NodeId;

/// Leading magic bytes: `0xA588`, a nod to the source paper (AfekLSY '88).
pub const MAGIC: u16 = 0xA588;
/// Current wire-format version; bumped on any layout change.
/// v2 added [`Frame::Lanes`] and the `lane_frames` barrier count.
pub const VERSION: u8 = 2;
/// Fixed header length in bytes (magic + version + kind + body_len).
pub const HEADER_LEN: usize = 8;
/// CRC-32 trailer length in bytes.
pub const TRAILER_LEN: usize = 4;

const KIND_P2P: u8 = 1;
const KIND_SLOT: u8 = 2;
const KIND_BARRIER: u8 = 3;
const KIND_HELLO: u8 = 4;
const KIND_LANES: u8 = 5;

/// Why a buffer failed to decode.  Every malformed input maps onto one of
/// these; none of them panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Buffer shorter than header + trailer, or body shorter than a field.
    TooShort,
    /// Leading bytes are not [`MAGIC`].
    BadMagic,
    /// Unknown [`VERSION`].
    BadVersion(u8),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// `body_len` disagrees with the buffer length.
    BadLength,
    /// Bytes after the declared end of frame.
    Trailing,
    /// CRC-32 trailer mismatch.
    BadChecksum,
    /// The frame body parsed but the embedded message payload did not.
    BadPayload,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::TooShort => write!(f, "buffer too short"),
            WireError::BadMagic => write!(f, "bad magic"),
            WireError::BadVersion(v) => write!(f, "unsupported version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadLength => write!(f, "length field disagrees with buffer"),
            WireError::Trailing => write!(f, "trailing bytes after frame"),
            WireError::BadChecksum => write!(f, "checksum mismatch"),
            WireError::BadPayload => write!(f, "embedded payload failed to parse"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.

static CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE) of `bytes`; the checksum carried in every frame trailer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Bound-checked little-endian reader.

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::TooShort)?;
        if end > self.buf.len() {
            return Err(WireError::TooShort);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Trailing)
        }
    }
}

// ---------------------------------------------------------------------------
// WireMsg: payload (de)serialization.

/// A message type that can cross the wire.  The socket backend requires
/// `P::Msg: WireMsg`; the simulator does not (in-process engines never
/// serialize).
///
/// `decode` receives *exactly* the payload bytes of one frame and must
/// consume all of them (returning `Err` otherwise) without panicking.
pub trait WireMsg: Sized {
    /// Appends this message's encoding to `out`.
    fn encode_msg(&self, out: &mut Vec<u8>);
    /// Parses a message from exactly `bytes`; `Err` on any mismatch.
    fn decode_msg(bytes: &[u8]) -> Result<Self, WireError>;
}

macro_rules! wire_uint {
    ($t:ty) => {
        impl WireMsg for $t {
            fn encode_msg(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode_msg(bytes: &[u8]) -> Result<Self, WireError> {
                let arr: [u8; core::mem::size_of::<$t>()] =
                    bytes.try_into().map_err(|_| WireError::BadPayload)?;
                Ok(<$t>::from_le_bytes(arr))
            }
        }
    };
}

wire_uint!(u8);
wire_uint!(u16);
wire_uint!(u32);
wire_uint!(u64);

impl WireMsg for () {
    fn encode_msg(&self, _out: &mut Vec<u8>) {}
    fn decode_msg(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(WireError::BadPayload)
        }
    }
}

impl WireMsg for Vec<u8> {
    fn encode_msg(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn decode_msg(bytes: &[u8]) -> Result<Self, WireError> {
        Ok(bytes.to_vec())
    }
}

impl WireMsg for (u64, u64) {
    fn encode_msg(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
        out.extend_from_slice(&self.1.to_le_bytes());
    }
    fn decode_msg(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() != 16 {
            return Err(WireError::BadPayload);
        }
        let mut r = Reader::new(bytes);
        Ok((r.u64()?, r.u64()?))
    }
}

// ---------------------------------------------------------------------------
// Frames.

/// One wire frame.  `M` is the protocol message type (see [`WireMsg`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame<M> {
    /// A point-to-point message sent during `round`.  `seq` is a per-host,
    /// per-round staging counter: receivers sort arrivals by
    /// `(from, seq)` to reconstruct the simulator's deterministic inbox
    /// order regardless of UDP reordering.
    P2p {
        /// Round the message was staged in (delivered at `round + 1`).
        round: u64,
        /// Sending node.
        from: NodeId,
        /// Receiving node (must be a graph neighbour of `from`).
        to: NodeId,
        /// Staging order within `(round, sending host)`.
        seq: u32,
        /// Protocol payload.
        payload: M,
    },
    /// One node's write onto one collision channel during `round`.
    /// Broadcast to every host; collision/idle/erasure resolution happens
    /// receiver-side from the set of `Slot` frames per channel.
    Slot {
        /// Round the write was staged in.
        round: u64,
        /// Channel written.
        chan: ChannelId,
        /// Writing node.
        from: NodeId,
        /// Protocol payload.
        payload: M,
    },
    /// End-of-round control frame, broadcast by each host after it has
    /// transmitted all of its round-`round` traffic.  The counts make the
    /// round *self-delimiting*: a receiver knows round `round` is complete
    /// once it holds all `hosts` barriers, `sent_to[self]` p2p frames from
    /// each peer, and `slot_frames` slot frames from each peer.
    Barrier {
        /// Round being closed.
        round: u64,
        /// Sending host.
        host: u16,
        /// Number of this host's nodes that are done or fault-exempt after
        /// stepping `round` (the engine's `done_count + undone_exempt`
        /// contribution, used for distributed quiescence detection).
        settled: u32,
        /// Messages staged by this host's nodes *before* fault drops
        /// (feeds `CostAccount::p2p_messages`).
        staged: u32,
        /// Messages dropped by the fault plan at the delivery boundary
        /// (feeds `CostAccount::dropped_messages`).
        dropped: u32,
        /// Slot frames this host broadcast (each goes to every host).
        slot_frames: u32,
        /// Lane frames this host broadcast (each goes to every host).
        lane_frames: u32,
        /// P2p frames actually transmitted to each destination host,
        /// indexed by host id.
        sent_to: Vec<u32>,
    },
    /// Startup handshake: identifies the sender and carries the pre-round-0
    /// state needed for the initial quiescence check.  Resent until every
    /// peer has been heard from.
    Hello {
        /// Sending host.
        host: u16,
        /// Total number of hosts in the run.
        hosts: u16,
        /// Total node count (sanity-checked against the local graph).
        nodes: u32,
        /// Channel count (sanity-checked against the local `ChannelSet`).
        k: u16,
        /// Initially done or fault-exempt nodes owned by the sender.
        settled: u32,
    },
    /// One node's bit-parallel lane word on one channel during `round`.
    /// Broadcast to every host; receivers OR all round-`round` words per
    /// channel (then apply erasure/corruption) to reproduce the engines'
    /// [`LaneOutcome`](crate::LaneOutcome) resolution.
    Lanes {
        /// Round the word was staged in.
        round: u64,
        /// Channel written.
        chan: ChannelId,
        /// Writing node.
        from: NodeId,
        /// The 64-lane word (already per-node OR-merged by the sender).
        word: u64,
    },
}

impl<M: WireMsg> Frame<M> {
    /// Appends the full encoding of this frame (header, body, CRC trailer)
    /// to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.push(VERSION);
        out.push(match self {
            Frame::P2p { .. } => KIND_P2P,
            Frame::Slot { .. } => KIND_SLOT,
            Frame::Barrier { .. } => KIND_BARRIER,
            Frame::Hello { .. } => KIND_HELLO,
            Frame::Lanes { .. } => KIND_LANES,
        });
        out.extend_from_slice(&[0; 4]); // body_len backpatched below
        let body_start = out.len();
        match self {
            Frame::P2p {
                round,
                from,
                to,
                seq,
                payload,
            } => {
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&(from.index() as u32).to_le_bytes());
                out.extend_from_slice(&(to.index() as u32).to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                payload.encode_msg(out);
            }
            Frame::Slot {
                round,
                chan,
                from,
                payload,
            } => {
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&chan.0.to_le_bytes());
                out.extend_from_slice(&(from.index() as u32).to_le_bytes());
                payload.encode_msg(out);
            }
            Frame::Barrier {
                round,
                host,
                settled,
                staged,
                dropped,
                slot_frames,
                lane_frames,
                sent_to,
            } => {
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&host.to_le_bytes());
                out.extend_from_slice(&settled.to_le_bytes());
                out.extend_from_slice(&staged.to_le_bytes());
                out.extend_from_slice(&dropped.to_le_bytes());
                out.extend_from_slice(&slot_frames.to_le_bytes());
                out.extend_from_slice(&lane_frames.to_le_bytes());
                let n = u16::try_from(sent_to.len()).expect("more than 65535 hosts");
                out.extend_from_slice(&n.to_le_bytes());
                for s in sent_to {
                    out.extend_from_slice(&s.to_le_bytes());
                }
            }
            Frame::Hello {
                host,
                hosts,
                nodes,
                k,
                settled,
            } => {
                out.extend_from_slice(&host.to_le_bytes());
                out.extend_from_slice(&hosts.to_le_bytes());
                out.extend_from_slice(&nodes.to_le_bytes());
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&settled.to_le_bytes());
            }
            Frame::Lanes {
                round,
                chan,
                from,
                word,
            } => {
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&chan.0.to_le_bytes());
                out.extend_from_slice(&(from.index() as u32).to_le_bytes());
                out.extend_from_slice(&word.to_le_bytes());
            }
        }
        let body_len = (out.len() - body_start) as u32;
        out[start + 4..start + 8].copy_from_slice(&body_len.to_le_bytes());
        let crc = crc32(&out[start..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// Convenience: encodes into a fresh buffer.
    pub fn encode_to_vec(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes exactly one frame from `bytes`.  Strict: the buffer must
    /// contain exactly one well-formed frame (no trailing bytes), the
    /// checksum must verify, and the payload must parse completely.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        Self::decode_reusing(bytes, &mut Vec::new())
    }

    /// [`Frame::decode`] that builds a [`Frame::Barrier`]'s `sent_to` table
    /// in the storage of `spare` (taken, leaving it empty) instead of a
    /// fresh allocation; every other kind leaves `spare` untouched.  A
    /// receiver that hands each finished round's tables back as the next
    /// `spare` decodes barriers without allocating.
    pub fn decode_reusing(bytes: &[u8], spare: &mut Vec<u32>) -> Result<Self, WireError> {
        if bytes.len() < HEADER_LEN + TRAILER_LEN {
            return Err(WireError::TooShort);
        }
        let mut hdr = Reader::new(&bytes[..HEADER_LEN]);
        if hdr.u16()? != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = hdr.u8()?;
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let kind = hdr.u8()?;
        if !(KIND_P2P..=KIND_LANES).contains(&kind) {
            return Err(WireError::BadKind(kind));
        }
        let body_len = hdr.u32()? as usize;
        let total = HEADER_LEN
            .checked_add(body_len)
            .and_then(|t| t.checked_add(TRAILER_LEN))
            .ok_or(WireError::BadLength)?;
        match bytes.len() {
            l if l < total => return Err(WireError::BadLength),
            l if l > total => return Err(WireError::Trailing),
            _ => {}
        }
        let covered = HEADER_LEN + body_len;
        let stored = u32::from_le_bytes(bytes[covered..total].try_into().unwrap());
        if crc32(&bytes[..covered]) != stored {
            return Err(WireError::BadChecksum);
        }
        let mut r = Reader::new(&bytes[HEADER_LEN..covered]);
        let frame = match kind {
            KIND_P2P => {
                let round = r.u64()?;
                let from = NodeId(r.u32()? as usize);
                let to = NodeId(r.u32()? as usize);
                let seq = r.u32()?;
                let payload = M::decode_msg(r.rest()).map_err(|_| WireError::BadPayload)?;
                Frame::P2p {
                    round,
                    from,
                    to,
                    seq,
                    payload,
                }
            }
            KIND_SLOT => {
                let round = r.u64()?;
                let chan = ChannelId(r.u16()?);
                let from = NodeId(r.u32()? as usize);
                let payload = M::decode_msg(r.rest()).map_err(|_| WireError::BadPayload)?;
                Frame::Slot {
                    round,
                    chan,
                    from,
                    payload,
                }
            }
            KIND_BARRIER => {
                let round = r.u64()?;
                let host = r.u16()?;
                let settled = r.u32()?;
                let staged = r.u32()?;
                let dropped = r.u32()?;
                let slot_frames = r.u32()?;
                let lane_frames = r.u32()?;
                let n = r.u16()? as usize;
                let mut sent_to = std::mem::take(spare);
                sent_to.clear();
                sent_to.reserve(n);
                for _ in 0..n {
                    sent_to.push(r.u32()?);
                }
                r.done()?;
                Frame::Barrier {
                    round,
                    host,
                    settled,
                    staged,
                    dropped,
                    slot_frames,
                    lane_frames,
                    sent_to,
                }
            }
            KIND_HELLO => {
                let host = r.u16()?;
                let hosts = r.u16()?;
                let nodes = r.u32()?;
                let k = r.u16()?;
                let settled = r.u32()?;
                r.done()?;
                Frame::Hello {
                    host,
                    hosts,
                    nodes,
                    k,
                    settled,
                }
            }
            KIND_LANES => {
                let round = r.u64()?;
                let chan = ChannelId(r.u16()?);
                let from = NodeId(r.u32()? as usize);
                let word = r.u64()?;
                r.done()?;
                Frame::Lanes {
                    round,
                    chan,
                    from,
                    word,
                }
            }
            _ => unreachable!("kind validated above"),
        };
        Ok(frame)
    }

    /// The round this frame belongs to (`Hello` frames are round-less and
    /// report 0).
    pub fn round(&self) -> u64 {
        match self {
            Frame::P2p { round, .. }
            | Frame::Slot { round, .. }
            | Frame::Barrier { round, .. }
            | Frame::Lanes { round, .. } => *round,
            Frame::Hello { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame<u64>) {
        let bytes = f.encode_to_vec();
        assert_eq!(Frame::<u64>::decode(&bytes), Ok(f));
    }

    #[test]
    fn all_kinds_roundtrip() {
        roundtrip(Frame::P2p {
            round: 7,
            from: NodeId(3),
            to: NodeId(4),
            seq: 12,
            payload: 0xDEAD_BEEF_u64,
        });
        roundtrip(Frame::Slot {
            round: u64::MAX,
            chan: ChannelId(63),
            from: NodeId(0),
            payload: 0,
        });
        roundtrip(Frame::Barrier {
            round: 2,
            host: 1,
            settled: 10,
            staged: 99,
            dropped: 3,
            slot_frames: 5,
            lane_frames: 2,
            sent_to: vec![0, 17, 4],
        });
        roundtrip(Frame::Hello {
            host: 0,
            hosts: 2,
            nodes: 1024,
            k: 16,
            settled: 0,
        });
        roundtrip(Frame::Lanes {
            round: 3,
            chan: ChannelId(7),
            from: NodeId(42),
            word: u64::MAX,
        });
    }

    #[test]
    fn decode_reusing_builds_barrier_tables_in_the_spare() {
        let barrier = Frame::<u64>::Barrier {
            round: 2,
            host: 1,
            settled: 10,
            staged: 99,
            dropped: 3,
            slot_frames: 5,
            lane_frames: 2,
            sent_to: vec![0, 17, 4],
        };
        let mut spare = Vec::with_capacity(8);
        spare.push(0xdead);
        let storage = spare.as_ptr();
        let decoded = Frame::<u64>::decode_reusing(&barrier.encode_to_vec(), &mut spare);
        assert_eq!(decoded.as_ref(), Ok(&barrier));
        assert_eq!(spare.capacity(), 0, "the barrier took the spare");
        let Ok(Frame::Barrier { sent_to, .. }) = decoded else {
            unreachable!()
        };
        assert_eq!(
            sent_to.as_ptr(),
            storage,
            "decoded in place, not reallocated"
        );

        // Every other kind leaves the spare alone.
        let mut spare = sent_to;
        let lanes = Frame::<u64>::Lanes {
            round: 3,
            chan: ChannelId(7),
            from: NodeId(42),
            word: 1,
        };
        let decoded = Frame::<u64>::decode_reusing(&lanes.encode_to_vec(), &mut spare);
        assert_eq!(decoded, Ok(lanes));
        assert_eq!(spare.as_ptr(), storage);
    }

    #[test]
    fn vec_payload_roundtrips() {
        let f: Frame<Vec<u8>> = Frame::Slot {
            round: 1,
            chan: ChannelId(0),
            from: NodeId(9),
            payload: vec![1, 2, 3, 255],
        };
        let bytes = f.encode_to_vec();
        assert_eq!(Frame::<Vec<u8>>::decode(&bytes), Ok(f));
    }

    #[test]
    fn strict_rejections() {
        let good = Frame::<u64>::P2p {
            round: 1,
            from: NodeId(0),
            to: NodeId(1),
            seq: 0,
            payload: 42,
        }
        .encode_to_vec();

        assert_eq!(Frame::<u64>::decode(&[]), Err(WireError::TooShort));
        assert_eq!(
            Frame::<u64>::decode(&good[..good.len() - 1]),
            Err(WireError::BadLength)
        );
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(Frame::<u64>::decode(&trailing), Err(WireError::Trailing));

        let mut magic = good.clone();
        magic[0] ^= 0xFF;
        assert_eq!(Frame::<u64>::decode(&magic), Err(WireError::BadMagic));

        let mut ver = good.clone();
        ver[2] = 9;
        assert_eq!(Frame::<u64>::decode(&ver), Err(WireError::BadVersion(9)));

        let mut kind = good.clone();
        kind[3] = 200;
        assert_eq!(Frame::<u64>::decode(&kind), Err(WireError::BadKind(200)));

        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert_eq!(Frame::<u64>::decode(&flipped), Err(WireError::BadChecksum));
    }

    #[test]
    fn checksum_is_stable() {
        // Pin the CRC-32 (IEEE) implementation against the standard test
        // vector so a table regression cannot silently re-key every frame.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn payload_length_is_enforced() {
        // Corrupt the body so the u64 payload sees 7 bytes: shrink body_len
        // and re-checksum; the payload decoder must reject, not panic.
        let f = Frame::<u64>::Slot {
            round: 0,
            chan: ChannelId(1),
            from: NodeId(2),
            payload: 77,
        };
        let mut bytes = f.encode_to_vec();
        let body_len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) - 1;
        bytes[4..8].copy_from_slice(&body_len.to_le_bytes());
        bytes.truncate(HEADER_LEN + body_len as usize);
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(Frame::<u64>::decode(&bytes), Err(WireError::BadPayload));
    }
}
