//! The multi-producer submission mailbox: one locked inbox, drained by
//! swapping buffers.
//!
//! The shared scheduler keeps a mailbox in front of its lock so that
//! `submit` never touches the scheduler mutex: producers take only the
//! mailbox's own inbox lock, to push one message or to append a
//! published batch, and whichever worker next takes the scheduler lock
//! swaps the whole inbox out for a spare buffer and replays it into the
//! two-level queue in submission order. Ingress (bursty submitters) and
//! dispatch (the worker holding the scheduler lock to pick an operator)
//! therefore never contend on the same lock — the decoupling Cameo
//! needs for per-event scheduling to stay off the critical path
//! (PAPER.md §5, Fig 5(b)). The paper asks for ingress kept off the
//! dispatcher's lock, not for ingress that is lock-free.
//!
//! The inbox is a `Vec` in arrival order, so a drain replays it as is:
//! there is no list reversal, no node recycling and no raw pointer. The
//! drainer owns the spare (the scheduler keeps it under its lock), so after
//! a swap the inbox reuses the spare's capacity and the two buffers
//! alternate. [`Mailbox::drain`] without a spare hands the inbox's
//! buffer to the caller and leaves an empty one behind.
//!
//! **Batched submission**: [`Mailbox::chain`] collects a batch in a
//! private `Vec` (no mailbox traffic) and [`MailChain::publish`]
//! appends it under one lock acquisition — the scheduler's
//! `submit_batch` uses this to pay one publication + one hint update +
//! one wake per batch instead of per message.
//!
//! Memory ordering: [`Mailbox::is_empty`] reads a `SeqCst` flag that
//! is written under the inbox lock on every publish and every swap, so
//! it always matches the inbox as of the last unlock. `SeqCst` (not
//! mere release/acquire) is deliberate — the park/wake protocol in
//! `shard.rs` runs a Dekker-style handshake between "producer: publish
//! mail, then read the parked count" and "parker: bump the parked
//! count, then check for mail", and that handshake is only
//! lost-wakeup-free if both sides' operations hit the single total
//! order.

use crate::ids::OperatorKey;
use crate::priority::Priority;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// One submitted message, as it travels through a mailbox.
#[derive(Debug)]
pub struct Mail<M> {
    /// The target operator.
    pub key: OperatorKey,
    /// The submitted priority.
    pub pri: Priority,
    /// The message payload.
    pub msg: M,
}

/// Multi-producer mailbox; see the module docs.
///
/// Producers call [`push`](Mailbox::push) concurrently from any thread.
/// [`drain`](Mailbox::drain) may also be called concurrently (each call
/// takes a disjoint batch), though the shared scheduler only drains
/// under its lock.
pub struct Mailbox<M> {
    inbox: Mutex<Vec<Mail<M>>>,
    /// True while the inbox holds mail; written only under `inbox`.
    queued: AtomicBool,
    /// Publications that had to grow the inbox buffer.
    growths: AtomicU64,
}

impl<M> Default for Mailbox<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Mailbox<M> {
    /// An empty mailbox.
    pub fn new() -> Self {
        Mailbox {
            inbox: Mutex::new(Vec::new()),
            queued: AtomicBool::new(false),
            growths: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Mail<M>>> {
        // No code runs under this lock that can panic with the inbox
        // half-written, so a poisoned guard is still consistent.
        self.inbox.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Push one message. Safe to call from any number of threads
    /// concurrently.
    pub fn push(&self, key: OperatorKey, msg: M, pri: Priority) {
        let mut inbox = self.lock();
        if inbox.len() == inbox.capacity() {
            self.growths.fetch_add(1, Ordering::Relaxed);
        }
        inbox.push(Mail { key, pri, msg });
        self.mark_queued();
    }

    /// Set the queued flag; called with the inbox lock held. When it is
    /// already set, the `SeqCst` store that set it precedes this
    /// publish (through the lock), so skipping the store keeps the
    /// handshake and saves an atomic on every push of a burst.
    fn mark_queued(&self) {
        if !self.queued.load(Ordering::Relaxed) {
            self.queued.store(true, Ordering::SeqCst);
        }
    }

    /// Start building a batch. Messages [`add`](MailChain::add)ed to
    /// the chain stay invisible to drains until
    /// [`publish`](MailChain::publish) appends the whole chain at once.
    /// Dropping an unpublished chain drops its messages. `capacity` is
    /// how many messages the chain expects: its buffer is the one the
    /// inbox takes over, so sizing it up front saves regrowing it.
    ///
    /// An empty inbox lends the chain its own idle buffer, and the
    /// publication that follows hands a buffer back, so a steady stream
    /// of batches allocates nothing. The allocation showed in
    /// `cameo_benchmark`'s traced `shard.submit_batch_ns_per_msg` cell
    /// (2 vCPUs): 3.8–4.1 ns per message with a fresh `Vec` per batch,
    /// 2.9–3.4 ns with the loan.
    pub fn chain(&self, capacity: usize) -> MailChain<'_, M> {
        let mut mail = {
            let mut inbox = self.lock();
            if inbox.is_empty() {
                std::mem::take(&mut *inbox)
            } else {
                Vec::new()
            }
        };
        mail.reserve(capacity);
        MailChain { mb: self, mail }
    }

    /// Convenience: build and publish a chain from an iterator. The
    /// whole batch becomes visible atomically, in iteration order.
    pub fn push_chain<I: IntoIterator<Item = (OperatorKey, M, Priority)>>(
        &self,
        items: I,
    ) -> usize {
        let items = items.into_iter();
        let mut chain = self.chain(items.size_hint().0);
        for (key, msg, pri) in items {
            chain.add(key, msg, pri);
        }
        chain.publish()
    }

    /// Append a batch under one lock acquisition. An empty inbox takes
    /// the batch's buffer as is, without copying.
    fn publish(&self, mut batch: Vec<Mail<M>>) {
        let mut inbox = self.lock();
        if inbox.is_empty() {
            std::mem::swap(&mut *inbox, &mut batch);
        } else {
            if inbox.capacity() - inbox.len() < batch.len() {
                self.growths.fetch_add(1, Ordering::Relaxed);
            }
            inbox.append(&mut batch);
        }
        self.mark_queued();
    }

    /// True when no undrained mail is queued. Used by the park fast
    /// path; `SeqCst` so the check participates in the anti-lost-wakeup
    /// handshake (module docs).
    pub fn is_empty(&self) -> bool {
        !self.queued.load(Ordering::SeqCst)
    }

    /// Pushes and appends so far that had to grow the inbox buffer. A
    /// batch that lands in an empty inbox hands over its own buffer and
    /// is not counted.
    pub fn growths(&self) -> u64 {
        self.growths.load(Ordering::Relaxed)
    }

    /// Messages the inbox buffer can hold without growing (the
    /// drainer's spare is not counted).
    pub fn capacity(&self) -> usize {
        self.lock().capacity()
    }

    /// Exchange the inbox for `spare` (which must be empty) and clear
    /// the queued flag, both under the inbox lock: afterwards `spare`
    /// holds everything queued, in submission order, and the inbox
    /// reuses `spare`'s buffer.
    pub fn swap(&self, spare: &mut Vec<Mail<M>>) {
        debug_assert!(spare.is_empty(), "a swap must not drop mail");
        let mut inbox = self.lock();
        std::mem::swap(&mut *inbox, spare);
        self.queued.store(false, Ordering::SeqCst);
    }

    /// Take everything currently in the mailbox and hand it to `f` in
    /// submission (FIFO) order. Returns the number of messages drained.
    ///
    /// The take is one swap under the inbox lock, so concurrent pushes
    /// are never torn: they either made this batch or land in the next
    /// one.
    pub fn drain<F: FnMut(Mail<M>)>(&self, f: F) -> usize {
        let mut batch = Vec::new();
        self.swap(&mut batch);
        let n = batch.len();
        batch.into_iter().for_each(f);
        n
    }
}

/// A batch of messages being assembled for one publication; see
/// [`Mailbox::chain`].
pub struct MailChain<'a, M> {
    mb: &'a Mailbox<M>,
    mail: Vec<Mail<M>>,
}

impl<M> MailChain<'_, M> {
    /// Append one message to the (still private) chain.
    #[inline]
    pub fn add(&mut self, key: OperatorKey, msg: M, pri: Priority) {
        self.mail.push(Mail { key, pri, msg });
    }

    /// Messages added so far.
    pub fn len(&self) -> usize {
        self.mail.len()
    }

    /// True when nothing has been added yet.
    pub fn is_empty(&self) -> bool {
        self.mail.is_empty()
    }

    /// Make the whole chain visible at once, preserving add order
    /// under the mailbox's FIFO drain. Returns the batch size.
    pub fn publish(self) -> usize {
        let n = self.mail.len();
        if n > 0 {
            self.mb.publish(self.mail);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::JobId;
    use std::sync::Arc;

    fn key(op: u32) -> OperatorKey {
        OperatorKey::new(JobId(0), op)
    }

    #[test]
    fn drains_in_submission_order() {
        let mb: Mailbox<u64> = Mailbox::new();
        for i in 0..100u64 {
            mb.push(key(i as u32), i, Priority::uniform(i as i64));
        }
        assert!(!mb.is_empty());
        let mut got = Vec::new();
        let n = mb.drain(|m| got.push(m.msg));
        assert_eq!(n, 100);
        assert_eq!(got, (0..100).collect::<Vec<_>>(), "FIFO order restored");
        assert!(mb.is_empty());
        assert_eq!(mb.drain(|_| panic!("empty")), 0);
    }

    #[test]
    fn interleaved_push_drain_batches() {
        let mb: Mailbox<u64> = Mailbox::new();
        mb.push(key(0), 1, Priority::uniform(0));
        mb.push(key(0), 2, Priority::uniform(0));
        let mut a = Vec::new();
        mb.drain(|m| a.push(m.msg));
        mb.push(key(0), 3, Priority::uniform(0));
        let mut b = Vec::new();
        mb.drain(|m| b.push(m.msg));
        assert_eq!(a, vec![1, 2]);
        assert_eq!(b, vec![3]);
    }

    #[test]
    fn steady_state_push_reuses_the_spare_buffer() {
        let mb: Mailbox<u64> = Mailbox::new();
        let mut spare = Vec::new();
        let mut growths_after_first_round = 0;
        for round in 0..10u64 {
            for i in 0..64u64 {
                mb.push(key(0), round * 64 + i, Priority::uniform(0));
            }
            mb.swap(&mut spare);
            assert_eq!(spare.len(), 64);
            spare.clear();
            if round == 1 {
                // Both buffers of the pair have grown to 64 by now.
                growths_after_first_round = mb.growths();
            }
        }
        assert!(growths_after_first_round > 0, "the first pushes grow");
        assert_eq!(
            mb.growths(),
            growths_after_first_round,
            "the two buffers alternate without growing again"
        );
        assert!(mb.capacity() >= 64);
    }

    #[test]
    fn chain_publish_is_atomic_and_fifo() {
        let mb: Mailbox<u64> = Mailbox::new();
        mb.push(key(9), 100, Priority::uniform(0));
        let mut chain = mb.chain(0);
        for i in 0..5u64 {
            chain.add(key(i as u32), i, Priority::uniform(0));
        }
        assert_eq!(chain.len(), 5);
        assert_eq!(chain.publish(), 5);
        mb.push(key(9), 200, Priority::uniform(0));
        let mut got = Vec::new();
        mb.drain(|m| got.push(m.msg));
        assert_eq!(got, vec![100, 0, 1, 2, 3, 4, 200]);
    }

    #[test]
    fn push_chain_convenience_and_empty_chain() {
        let mb: Mailbox<u64> = Mailbox::new();
        assert_eq!(mb.push_chain(std::iter::empty()), 0);
        assert!(mb.is_empty());
        let n = mb.push_chain((0..7u64).map(|i| (key(0), i, Priority::uniform(0))));
        assert_eq!(n, 7);
        let mut got = Vec::new();
        mb.drain(|m| got.push(m.msg));
        assert_eq!(got, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn dropped_unpublished_chain_releases_payloads() {
        struct Tracked(Arc<std::sync::atomic::AtomicUsize>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let hits = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mb: Mailbox<Tracked> = Mailbox::new();
        {
            let mut chain = mb.chain(0);
            for _ in 0..4 {
                chain.add(key(0), Tracked(hits.clone()), Priority::uniform(0));
            }
            // Dropped without publish.
        }
        assert_eq!(hits.load(Ordering::Relaxed), 4, "payloads freed");
        assert!(mb.is_empty(), "nothing leaked into the mailbox");
        assert_eq!(mb.drain(|_| panic!("empty")), 0);
    }

    #[test]
    fn drop_frees_undrained_mail() {
        // Dropping a mailbox with queued mail drops every payload once.
        struct Tracked(Arc<std::sync::atomic::AtomicUsize>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let hits = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        {
            let mb: Mailbox<Tracked> = Mailbox::new();
            for _ in 0..10 {
                mb.push(key(0), Tracked(hits.clone()), Priority::uniform(0));
            }
        }
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn concurrent_pushers_lose_nothing() {
        const THREADS: u64 = 8;
        const PER: u64 = 10_000;
        let mb: Arc<Mailbox<u64>> = Arc::new(Mailbox::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let mb = mb.clone();
                std::thread::spawn(move || {
                    for i in 0..PER {
                        mb.push(key(t as u32), t * PER + i, Priority::uniform(0));
                    }
                })
            })
            .collect();
        // Drain concurrently with the pushers.
        let mut got = Vec::new();
        while got.len() < (THREADS * PER) as usize {
            mb.drain(|m| got.push(m.msg));
        }
        for h in handles {
            h.join().unwrap();
        }
        mb.drain(|m| got.push(m.msg));
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), (THREADS * PER) as usize, "lost or duplicated");
    }

    #[test]
    fn per_producer_fifo_survives_concurrent_drain() {
        const THREADS: u64 = 4;
        const PER: u64 = 5_000;
        let mb: Arc<Mailbox<u64>> = Arc::new(Mailbox::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let mb = mb.clone();
                std::thread::spawn(move || {
                    for i in 0..PER {
                        mb.push(key(t as u32), t * PER + i, Priority::uniform(0));
                    }
                })
            })
            .collect();
        let mut got: Vec<u64> = Vec::new();
        while got.len() < (THREADS * PER) as usize {
            mb.drain(|m| got.push(m.msg));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Within each producer, drained order == submission order.
        for t in 0..THREADS {
            let sub: Vec<u64> = got.iter().copied().filter(|v| v / PER == t).collect();
            assert!(
                sub.windows(2).all(|w| w[0] < w[1]),
                "producer {t} order scrambled"
            );
        }
    }
}
