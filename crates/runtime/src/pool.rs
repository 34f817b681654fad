//! A recycling pool of fixed-capacity tile buffers.
//!
//! The interpreter's hot path moves one tile per FIFO slot, and §6 of the
//! paper reaches near-hardware bandwidth precisely because those slots are
//! *reused*: no allocation happens per message. [`TilePool`] gives the
//! threaded runtime the same property. Buffers are handed out as
//! [`PooledTile`]s, carried through FIFOs by ownership, and returned to
//! the pool automatically on drop — in steady state a run performs zero
//! per-tile allocations, which [`PoolStats`] makes observable.
//!
//! Buffers are allocated at the pool's fixed capacity and zero-filled
//! once; a take only adjusts the tile's *logical* length, so the hot path
//! never re-zeroes memory. A pool outlives any single execution: it
//! lives in the [`ExecArena`](crate::ExecArena), so repeated runs in one
//! arena (see [`Run::arena`](crate::Run::arena)) keep the warm buffers
//! across calls, which is what the throughput bench measures.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Counters describing how a pool behaved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fresh buffer allocations (pool misses). Zero in steady state.
    pub allocated: u64,
    /// Takes served from a recycled buffer (pool hits).
    pub reused: u64,
    /// Buffers currently resting in the free list.
    pub free: u64,
}

/// A thread-safe free list of equally sized `f32` buffers.
#[derive(Debug)]
pub struct TilePool {
    /// Elements per buffer. Takes longer than this still succeed (the
    /// buffer grows and stays grown), they just count as allocations.
    capacity: usize,
    free: Mutex<Vec<Vec<f32>>>,
    allocated: AtomicU64,
    reused: AtomicU64,
}

impl TilePool {
    /// A pool of `capacity`-element buffers (at least one element).
    #[must_use]
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            capacity: capacity.max(1),
            free: Mutex::new(Vec::new()),
            allocated: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        })
    }

    /// Elements per pooled buffer.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Takes a tile of logical length `len`, recycling a free buffer when
    /// one is available. The tile's contents are unspecified (typically
    /// whatever the previous user wrote); callers overwrite it in full.
    #[must_use]
    pub fn take(self: &Arc<Self>, len: usize) -> PooledTile {
        let recycled = {
            let mut free = self.free.lock().unwrap_or_else(PoisonError::into_inner);
            free.pop()
        };
        let buf = match recycled {
            Some(buf) if buf.len() >= len => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                buf
            }
            other => {
                // Miss, or a recycled buffer from before a capacity-raising
                // take: (re)allocate at the larger of the pool capacity and
                // the request, zero-filled once for its lifetime.
                self.allocated.fetch_add(1, Ordering::Relaxed);
                let want = self.capacity.max(len);
                match other {
                    Some(mut buf) => {
                        buf.resize(want, 0.0);
                        buf
                    }
                    None => vec![0.0; want],
                }
            }
        };
        debug_assert!(buf.len() >= len);
        PooledTile {
            len,
            buf,
            pool: Arc::clone(self),
        }
    }

    /// Pre-fills the free list with `n` buffers so even the first takes
    /// are hits. The buffers count toward [`PoolStats::allocated`].
    pub fn prewarm(self: &Arc<Self>, n: usize) {
        let mut fresh: Vec<Vec<f32>> = (0..n).map(|_| vec![0.0; self.capacity]).collect();
        self.allocated.fetch_add(n as u64, Ordering::Relaxed);
        let mut free = self.free.lock().unwrap_or_else(PoisonError::into_inner);
        free.append(&mut fresh);
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let free = self.free.lock().unwrap_or_else(PoisonError::into_inner);
        PoolStats {
            allocated: self.allocated.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            free: free.len() as u64,
        }
    }

    fn put_back(&self, buf: Vec<f32>) {
        let mut free = self.free.lock().unwrap_or_else(PoisonError::into_inner);
        free.push(buf);
    }
}

/// An owned tile backed by a pooled buffer; returns to its pool on drop.
///
/// Dereferences to `[f32]` of the logical length requested at take time
/// (the backing buffer may be larger).
#[derive(Debug)]
pub struct PooledTile {
    len: usize,
    buf: Vec<f32>,
    pool: Arc<TilePool>,
}

impl PooledTile {
    /// The logical length in elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tile holds zero elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A second tile from the same pool holding a copy of this one's
    /// contents — the copy-on-write path for duplicate-delivery faults.
    #[must_use]
    pub fn duplicate(&self) -> PooledTile {
        let mut copy = self.pool.take(self.len);
        copy.copy_from_slice(self);
        copy
    }
}

impl std::ops::Deref for PooledTile {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf[..self.len]
    }
}

impl std::ops::DerefMut for PooledTile {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf[..self.len]
    }
}

impl Drop for PooledTile {
    fn drop(&mut self) {
        self.pool.put_back(std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_buffers_in_steady_state() {
        let pool = TilePool::new(8);
        {
            let t = pool.take(8);
            assert_eq!(t.len(), 8);
        }
        for _ in 0..100 {
            let t = pool.take(4);
            assert_eq!(t.len(), 4);
        }
        let s = pool.stats();
        assert_eq!(s.allocated, 1, "only the first take allocates");
        assert_eq!(s.reused, 100);
        assert_eq!(s.free, 1);
    }

    #[test]
    fn concurrent_takes_allocate_at_most_high_watermark() {
        let pool = TilePool::new(16);
        let a = pool.take(16);
        let b = pool.take(16);
        drop(a);
        drop(b);
        let c = pool.take(16);
        let d = pool.take(16);
        drop(c);
        drop(d);
        assert_eq!(pool.stats().allocated, 2);
        assert_eq!(pool.stats().free, 2);
    }

    #[test]
    fn oversized_take_grows_and_stays_grown() {
        let pool = TilePool::new(4);
        {
            let t = pool.take(10);
            assert_eq!(t.len(), 10);
        }
        assert_eq!(pool.stats().allocated, 1);
        let t = pool.take(10);
        assert_eq!(pool.stats().reused, 1, "grown buffer is recycled");
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn prewarm_makes_first_takes_hits() {
        let pool = TilePool::new(8);
        pool.prewarm(3);
        assert_eq!(pool.stats().free, 3);
        let _a = pool.take(8);
        let _b = pool.take(8);
        let s = pool.stats();
        assert_eq!(s.reused, 2);
        assert_eq!(s.allocated, 3, "prewarm allocations are accounted");
    }

    #[test]
    fn duplicate_copies_contents_through_the_pool() {
        let pool = TilePool::new(4);
        let mut t = pool.take(3);
        t.copy_from_slice(&[1.0, 2.0, 3.0]);
        let d = t.duplicate();
        assert_eq!(&d[..], &[1.0, 2.0, 3.0]);
        drop(t);
        drop(d);
        assert_eq!(pool.stats().free, 2);
    }

    #[test]
    fn tiles_are_writable_through_deref() {
        let pool = TilePool::new(4);
        let mut t = pool.take(2);
        t[0] = 5.0;
        t[1] = 6.0;
        assert_eq!(&t[..], &[5.0, 6.0]);
    }
}
