//! Arena-backed payload storage for non-`Copy` messages.
//!
//! The flat engines never move (or clone) a message payload per delivery:
//! a payload is **interned once** into a [`PayloadArena`] when it is sent —
//! a broadcast over `d` links interns one payload and fans out `d` copies of
//! a 4-byte [`PayloadHandle`] — and every delivery resolves the handle back
//! to a shared `&M`.
//!
//! # Epoch discipline
//!
//! The arena is a bump slab with **whole-epoch expiry**, matching the round
//! engines' double-buffered message plumbing:
//!
//! * **Handle lifetime is one round.**  Payloads interned while round `r`
//!   executes are delivered (read-only) during round `r + 1` and the whole
//!   epoch dies at the end of that round — there is no per-handle free list
//!   and no reference counting, because nothing outlives its epoch.  The
//!   engines keep two arenas and swap their roles each round (stage into
//!   one, deliver from the other), exactly like the inbox buffers.
//! * **Intern-on-broadcast.**  [`RoundIo::send_all`](crate::RoundIo::send_all)
//!   interns the payload once; every receiver's inbox entry stores the same
//!   handle.  Expiry retires the payload once, so sharing needs no
//!   bookkeeping.
//! * **Slot reuse.**  [`PayloadArena::expire`] resets the bump cursor and
//!   keeps the slot vector's capacity, so the handles issued in round
//!   `r + 1` are the same indices that round `r` used: once the slab has
//!   grown to the workload's per-round high-water mark it never allocates
//!   again (enforced by the `alloc_steady_state` integration test).
//!
//! # Recycling heap payloads
//!
//! For `Copy`-ish payloads expiry is a cursor reset.  For payloads that own
//! heap storage (`Vec<u8>` frames, boxed records) expiry moves the dead
//! values into a bounded *graveyard* instead of dropping them; a protocol
//! obtains a dead payload — backing capacity intact — through
//! [`RoundIo::recycle_payload`](crate::RoundIo::recycle_payload) (or
//! [`AsyncCtx::recycle_payload`](crate::AsyncCtx::recycle_payload)),
//! overwrites it in place, and sends it again.  That closes the loop: a
//! protocol shipping variable-length frames runs **zero-allocation in steady
//! state** even though its message type is not `Copy`.  Protocols that never
//! recycle still work — the graveyard is capped at one epoch's worth of
//! payloads and the overflow is simply dropped.

/// Index of an interned payload in a [`PayloadArena`] epoch.
///
/// Handles are cheap (`u32`), `Copy`, and valid only for the epoch that
/// issued them: the engines resolve them against the delivery-side arena of
/// the matching round and never let one escape its round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PayloadHandle(pub(crate) u32);

impl PayloadHandle {
    /// Placeholder handle used to fill pooled scratch buffers before they
    /// are overwritten; never resolved.
    pub(crate) const DANGLING: PayloadHandle = PayloadHandle(u32::MAX);

    /// The slot index this handle refers to.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Epoch-based slab of message payloads; see the [module docs](self).
#[derive(Debug)]
pub struct PayloadArena<M> {
    /// Payload slots; `slots[i]` holds `Some` for every `i < live`.  Slots
    /// beyond `live` may hold stale values from expired epochs when `M`
    /// needs no drop (they are overwritten on reuse, never read).
    slots: Vec<Option<M>>,
    /// Bump cursor: number of payloads interned in the current epoch.
    live: usize,
    /// Dead heap payloads kept for capacity reuse via [`PayloadArena::recycle`];
    /// always empty when `M` needs no drop.
    graveyard: Vec<M>,
    /// Largest epoch size ever reached.
    high_water: usize,
}

impl<M> PayloadArena<M> {
    /// An empty arena.
    pub fn new() -> Self {
        PayloadArena {
            slots: Vec::new(),
            live: 0,
            graveyard: Vec::new(),
            high_water: 0,
        }
    }

    /// Stores `payload` in the current epoch and returns its handle.
    ///
    /// Reuses an expired slot when one is available; the backing slot vector
    /// only grows while the epoch exceeds every previous epoch's size.
    pub fn intern(&mut self, payload: M) -> PayloadHandle {
        let h = self.live;
        assert!(h < u32::MAX as usize, "payload arena epoch overflow");
        if h == self.slots.len() {
            self.slots.push(Some(payload));
        } else {
            self.slots[h] = Some(payload);
        }
        self.live = h + 1;
        if self.live > self.high_water {
            self.high_water = self.live;
        }
        PayloadHandle(h as u32)
    }

    /// Resolves a handle issued by this epoch.
    ///
    /// # Panics
    ///
    /// Panics if the handle belongs to an expired epoch (index at or above
    /// the current bump cursor).
    pub fn get(&self, handle: PayloadHandle) -> &M {
        let i = handle.0 as usize;
        assert!(i < self.live, "stale payload handle: epoch has expired");
        self.slots[i].as_ref().expect("live slot holds a payload")
    }

    /// Number of payloads interned in the current epoch.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Returns `true` when the current epoch holds no payloads.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total payload slots ever grown (the slab's capacity high-water mark).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Largest epoch size ever reached; equals [`PayloadArena::capacity`]
    /// once the arena has warmed up, because slots are reissued in place.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Dead payloads currently available to [`PayloadArena::recycle`].
    pub fn recyclable(&self) -> usize {
        self.graveyard.len()
    }

    /// Moves the payload out of its slot (the slot stays reserved until the
    /// epoch expires).  Used by the draining accessors for a handle's final
    /// use; a later [`PayloadArena::get`] on the same handle panics.
    pub(crate) fn take(&mut self, handle: PayloadHandle) -> M {
        let i = handle.0 as usize;
        assert!(i < self.live, "stale payload handle: epoch has expired");
        self.slots[i].take().expect("payload already taken")
    }

    /// Ends the current epoch: every handle issued since the last expiry
    /// becomes invalid and every slot is available for reissue.
    ///
    /// Payload values that own heap storage are parked in the graveyard
    /// (capped at one epoch's worth; overflow is dropped) so
    /// [`PayloadArena::recycle`] can hand their capacity back to senders;
    /// for types without drop glue this is a cursor reset.  Slots emptied
    /// early (payloads moved out by the crate-internal `take`, used by the
    /// draining accessors for a handle's last use) are skipped.
    pub fn expire(&mut self) {
        if std::mem::needs_drop::<M>() {
            let cap = self.slots.len();
            for slot in &mut self.slots[..self.live] {
                if let Some(payload) = slot.take() {
                    if self.graveyard.len() < cap {
                        self.graveyard.push(payload);
                    }
                }
            }
        }
        self.live = 0;
    }

    /// Takes one dead payload (heap capacity intact) for reuse, if any.
    ///
    /// Returns `None` for types without drop glue — there is nothing worth
    /// reusing — and whenever the graveyard is empty (e.g. during the first
    /// rounds, before any epoch has expired).
    pub fn recycle(&mut self) -> Option<M> {
        self.graveyard.pop()
    }

    /// Parks a dead payload in the graveyard directly (capacity-capped like
    /// [`PayloadArena::expire`]); used by the engines to hand expired
    /// payloads back to the arenas senders actually intern into.
    pub(crate) fn donate(&mut self, payload: M) {
        if std::mem::needs_drop::<M>() && self.graveyard.len() < self.slots.len().max(1) {
            self.graveyard.push(payload);
        }
    }
}

impl<M> Default for PayloadArena<M> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_get_roundtrip() {
        let mut a: PayloadArena<Vec<u8>> = PayloadArena::new();
        let h1 = a.intern(vec![1, 2, 3]);
        let h2 = a.intern(vec![4]);
        assert_eq!(a.get(h1), &[1, 2, 3]);
        assert_eq!(a.get(h2), &[4]);
        assert_eq!(a.live(), 2);
        assert_eq!(a.high_water(), 2);
    }

    #[test]
    fn handles_are_reissued_after_expiry() {
        // The arena-reuse contract: handles freed by the expiry of epoch r
        // are reissued — same indices, same slots — in epoch r + 1, and the
        // slab never grows past the largest epoch.
        let mut a: PayloadArena<Vec<u8>> = PayloadArena::new();
        let first: Vec<PayloadHandle> = (0..8).map(|i| a.intern(vec![i as u8; 4])).collect();
        a.expire();
        let second: Vec<PayloadHandle> = (0..8).map(|i| a.intern(vec![i as u8; 4])).collect();
        assert_eq!(first, second, "expired handles must be reissued in order");
        assert_eq!(a.capacity(), 8);
        assert_eq!(a.high_water(), 8);
    }

    #[test]
    #[should_panic(expected = "stale payload handle")]
    fn stale_handle_panics() {
        let mut a: PayloadArena<u64> = PayloadArena::new();
        let h = a.intern(7);
        a.expire();
        let _ = a.get(h);
    }

    #[test]
    fn recycle_returns_heap_payloads_with_capacity() {
        let mut a: PayloadArena<Vec<u8>> = PayloadArena::new();
        let mut frame = Vec::with_capacity(4096);
        frame.extend_from_slice(&[9; 100]);
        a.intern(frame);
        assert_eq!(a.recycle(), None, "live payloads are not recyclable");
        a.expire();
        let back = a.recycle().expect("expired payload is recyclable");
        assert_eq!(back.capacity(), 4096, "backing storage must survive");
        assert_eq!(back, vec![9; 100]);
        assert_eq!(a.recycle(), None);
    }

    #[test]
    fn copy_payloads_skip_the_graveyard() {
        let mut a: PayloadArena<u64> = PayloadArena::new();
        for i in 0..16 {
            a.intern(i);
        }
        a.expire();
        assert_eq!(a.recyclable(), 0);
        assert_eq!(a.recycle(), None);
    }

    #[test]
    fn graveyard_is_bounded_by_one_epoch() {
        let mut a: PayloadArena<Vec<u8>> = PayloadArena::new();
        for _ in 0..10 {
            for i in 0..4 {
                a.intern(vec![i as u8]);
            }
            a.expire();
        }
        // Ten expired epochs of four payloads each, but the graveyard never
        // exceeds the slab capacity (one epoch's worth).
        assert!(a.recyclable() <= a.capacity());
        assert_eq!(a.capacity(), 4);
    }
}
