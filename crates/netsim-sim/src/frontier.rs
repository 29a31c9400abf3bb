//! The activity frontier of sparse stepping: a double-buffered pair of
//! two-level bitsets, shared by the flat engine's sparse rounds and the
//! asynchronous engine's sparse boundary dispatch.

use crate::channel::ChannelSet;

/// A two-level bitset over node indices: `words` holds one bit per node and
/// `summary` one bit per word of `words`, set iff that word is non-zero.
/// Iteration and clearing walk the summary, so both cost O(set words) rather
/// than O(n), and iteration is ascending by construction.
#[derive(Debug)]
pub(crate) struct BitLevels {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl BitLevels {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        BitLevels {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
        }
    }

    #[inline]
    fn set(&mut self, v: usize) {
        self.or_word(v >> 6, 1 << (v & 63));
    }

    /// ORs the non-zero `bits` into word `w`.
    #[inline]
    fn or_word(&mut self, w: usize, bits: u64) {
        self.words[w] |= bits;
        self.summary[w >> 6] |= 1 << (w & 63);
    }

    /// ORs every member of `other` (same universe) into `self`.
    fn or_from(&mut self, other: &BitLevels) {
        for (si, &s) in other.summary.iter().enumerate() {
            self.summary[si] |= s;
            for w in word_ones(si, s) {
                self.words[w] |= other.words[w];
            }
        }
    }

    fn clear(&mut self) {
        for (si, s) in self.summary.iter_mut().enumerate() {
            for w in word_ones(si, std::mem::take(s)) {
                self.words[w] = 0;
            }
        }
    }

    /// The members, ascending.
    pub(crate) fn ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            summary: &self.summary,
            si: 0,
            pending: self.summary.first().copied().unwrap_or(0),
            wi: 0,
            word: 0,
        }
    }
}

/// Indices `si * 64 + b` of the set bits `b` of `bits`, ascending.
fn word_ones(si: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            si << 6 | b
        })
    })
}

/// Ascending iterator over the members of a [`BitLevels`].
pub(crate) struct Ones<'a> {
    words: &'a [u64],
    summary: &'a [u64],
    /// Summary word being drained, and its not yet visited bits.
    si: usize,
    pending: u64,
    /// Member word being drained, and its not yet yielded bits.
    wi: usize,
    word: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            while self.pending == 0 {
                self.si += 1;
                self.pending = *self.summary.get(self.si)?;
            }
            self.wi = self.si << 6 | self.pending.trailing_zeros() as usize;
            self.pending &= self.pending - 1;
            self.word = self.words[self.wi];
        }
        let v = self.wi << 6 | self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(v)
    }
}

/// The activity frontier of the sparse stepping mode: the set of nodes that
/// must step next round, double-buffered so wakeups raised *during* a round
/// (message receivers, `wake_me` requests, slot listeners) land in `next`
/// while the current round consumes the frozen `active` set.
///
/// Both sets are [`BitLevels`], so a wake is two OR-writes with dedup for
/// free, and the active set is iterated in ascending node index **by
/// construction** — no member list, no sort.  That order is the engine's
/// determinism contract: stepping senders ascending is what keeps every
/// receiver's inbox ordered by sender index, bit-for-bit equal to a dense
/// round.
///
/// Channel feedback wakes a whole channel at once: `listeners[c]` is the
/// bitset of nodes attached to channel `c`, rebuilt only when the attachment
/// changes ([`Frontier::reattach`]), and a non-idle outcome on `c` ORs it
/// into `next` word by word instead of scanning all `n` attachment masks.
#[derive(Debug)]
pub(crate) struct Frontier {
    /// Accumulating members of the **next** round's frontier.
    next: BitLevels,
    /// Next round must step every node (round 0, re-attachment,
    /// `update_nodes`, a non-idle slot under uniform attachment).
    all: bool,
    /// Members consumed by the **current** round's sparse step.
    active: BitLevels,
    /// The current round steps every node (`active` is then not read).
    active_all: bool,
    /// Per-channel attached-node bitsets; empty under uniform attachment,
    /// where every node hears every channel.
    listeners: Vec<BitLevels>,
}

impl Frontier {
    pub(crate) fn new(n: usize, channels: &ChannelSet) -> Self {
        let mut frontier = Frontier {
            next: BitLevels::new(n),
            all: true,
            active: BitLevels::new(n),
            active_all: false,
            listeners: Vec::new(),
        };
        if let Some(masks) = channels.masks_table() {
            frontier.reattach(channels.channels(), masks);
        }
        frontier
    }

    /// Schedules node `v` onto the next round's frontier (idempotent).
    #[inline]
    pub(crate) fn wake(&mut self, v: usize) {
        if !self.all {
            self.next.set(v);
        }
    }

    /// Schedules a run of nodes.  Any order is correct; an ascending run —
    /// the `wake_me` requests of a stepping pass — costs one bitset write
    /// per 64 nodes instead of one per node.
    pub(crate) fn wake_run(&mut self, nodes: impl Iterator<Item = usize>) {
        if self.all {
            return;
        }
        let (mut w, mut bits) = (0, 0u64);
        for v in nodes {
            if v >> 6 != w && bits != 0 {
                self.next.or_word(w, std::mem::take(&mut bits));
            }
            w = v >> 6;
            bits |= 1 << (v & 63);
        }
        if bits != 0 {
            self.next.or_word(w, bits);
        }
    }

    /// Schedules every node onto the next round's frontier.
    pub(crate) fn wake_all(&mut self) {
        self.all = true;
    }

    /// Schedules the listeners of every channel in `busy` (a
    /// [`ChannelFold::busy`](crate::ChannelFold::busy) mask): a non-idle
    /// slot or lane outcome is feedback every attached node observes.
    pub(crate) fn wake_channels(&mut self, busy: u64) {
        for c in word_ones(0, busy) {
            match self.listeners.get(c) {
                Some(members) if !self.all => self.next.or_from(members),
                Some(_) => {}
                None => self.all = true,
            }
        }
    }

    /// Re-indexes the per-channel listener sets from an attachment snapshot
    /// (one mask per node, already validated against `k`) and schedules
    /// every node: attachment changes what anyone may hear next round.
    pub(crate) fn reattach(&mut self, k: u16, masks: &[u64]) {
        self.listeners
            .resize_with(usize::from(k), || BitLevels::new(masks.len()));
        self.listeners.iter_mut().for_each(BitLevels::clear);
        for (v, &mask) in masks.iter().enumerate() {
            for c in word_ones(0, mask) {
                self.listeners[c].set(v);
            }
        }
        self.all = true;
    }

    /// Rotates the accumulated wakeups into the active set and resets the
    /// accumulator; returns the nodes to step this round.
    pub(crate) fn advance(&mut self) -> Active<'_> {
        std::mem::swap(&mut self.active, &mut self.next);
        self.next.clear();
        self.active_all = std::mem::take(&mut self.all);
        self.current()
    }

    /// The nodes the last [`advance`](Frontier::advance) handed out (no
    /// member before the first).
    pub(crate) fn current(&self) -> Active<'_> {
        if self.active_all {
            Active::All
        } else {
            Active::Members(&self.active)
        }
    }
}

/// The nodes a stepping pass visits, and the inbox index they read through.
#[derive(Clone, Copy)]
pub(crate) enum Active<'a> {
    /// Dense engine: every node, inboxes through the CSR `offsets`.
    Dense,
    /// Sparse engine, all-active round: every node, inboxes through the
    /// per-receiver chains.
    All,
    /// Sparse engine: exactly the frontier members, ascending.
    Members(&'a BitLevels),
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The members an [`Active`] frontier steps (`None` = every node).
    fn members(active: Active<'_>) -> Option<Vec<usize>> {
        match active {
            Active::Dense | Active::All => None,
            Active::Members(set) => Some(set.ones().collect()),
        }
    }

    #[test]
    fn bit_levels_iterate_ascending_across_word_and_summary_boundaries() {
        // Neither a multiple of 64 nor of 4096: the last word and the last
        // summary word are both partial.
        let n = 2 * 4096 + 100;
        let picks = [8291, 64, 0, 4097, 63, 8192, 4095, 4096, 8191];
        let mut set = BitLevels::new(n);
        picks.iter().for_each(|&v| set.set(v));
        set.set(64); // idempotent
        let mut sorted = picks.to_vec();
        sorted.sort_unstable();
        assert_eq!(set.ones().collect::<Vec<_>>(), sorted);
        set.clear();
        assert_eq!(set.ones().next(), None);
        assert!(set.words.iter().chain(&set.summary).all(|&w| w == 0));
    }

    #[test]
    fn frontier_wake_all_subsumes_earlier_wakes() {
        let mut f = Frontier::new(200, &ChannelSet::single());
        assert_eq!(members(f.advance()), None, "round 0 steps everyone");
        f.wake(5);
        f.wake_all();
        f.wake(7); // dropped: everyone is scheduled already
        assert_eq!(members(f.advance()), None);
        // The subsumed wakes must not leak into the round after.
        assert_eq!(members(f.advance()), Some(vec![]));
        f.wake_run([130, 3, 4, 64].into_iter());
        f.wake(3);
        assert_eq!(members(f.advance()), Some(vec![3, 4, 64, 130]));
        // Uniform attachment: channel feedback reaches everyone.
        f.wake_channels(0b01);
        assert_eq!(members(f.advance()), None);
    }

    #[test]
    fn frontier_channel_wake_follows_reattachment() {
        let n = 4096 + 70;
        let mut masks = vec![0b01u64; n];
        for v in [3, 64, n - 1] {
            masks[v] = 0b10;
        }
        let mut f = Frontier::new(n, &ChannelSet::from_masks(2, masks.clone()));
        assert_eq!(members(f.advance()), None);
        f.wake_channels(0b10);
        assert_eq!(members(f.advance()), Some(vec![3, 64, n - 1]));
        // Move node 3 off channel 1 and node 70 onto both channels: after
        // the re-attachment's own all-active round, a wake of channel 1
        // reaches exactly its new listeners.
        masks[3] = 0b01;
        masks[70] = 0b11;
        f.reattach(2, &masks);
        assert_eq!(members(f.advance()), None);
        f.wake_channels(0b10);
        assert_eq!(members(f.advance()), Some(vec![64, 70, n - 1]));
    }
}
