//! The yardstick: a fixed, memory-bound replay written in this crate,
//! timed right after every pass to measure how fast the host runs this
//! kind of work at that moment.
//!
//! On a shared host, other tenants slow the memory system by up to 2×,
//! for stretches of seconds to minutes. A pass slows with it, and so
//! does the yardstick, which touches memory the way the simulator does: a
//! hot table of cache slots plus scattered reads and writes in a
//! working set far larger than the private caches. Dividing a pass's
//! time by the yardstick's time next to it cancels most of that drift. The
//! yardstick's code and input belong to the benchmark alone, so nothing a
//! change to the simulator does can speed it up or slow it down.

use std::time::Instant;

/// Requests in the yardstick's stream.
const REQUESTS: usize = 500_000;
/// Distinct objects in the stream.
const OBJECTS: usize = 10_000;
/// LRU slots: a tenth of the objects, as the workloads' proxy caches.
const CAPACITY: usize = 1_000;
/// Words of scattered metadata: 8 MB, about the heap a `hiergd-compat`
/// or `churn-event` engine keeps, and more than a core's private caches.
const META_WORDS: usize = 1 << 20;
/// Zipf exponent of the stream's popularity.
const ZIPF_ALPHA: f64 = 0.75;
/// No slot / no object.
const NIL: u32 = u32::MAX;

/// The yardstick's nominal cost, in ns per request: the host speed every
/// normalized time is expressed at. It is about the median on the 2-core
/// VM the bounds were set on.
pub const NOMINAL_NS_PER_REQ: f64 = 35.0;

/// xorshift64: the yardstick's own generator, fixed so that every run
/// replays the same stream.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A Zipf-popular object stream of `requests` over `objects`, by
/// inverse-CDF sampling.
fn zipf_stream(requests: usize, objects: usize, seed: u64) -> Vec<u32> {
    let mut cdf: Vec<f64> = (1..=objects).map(|r| (r as f64).powf(-ZIPF_ALPHA)).collect();
    let mut sum = 0.0;
    for c in cdf.iter_mut() {
        sum += *c;
        *c = sum;
    }
    let mut x = seed | 1;
    (0..requests)
        .map(|_| {
            let u = (xorshift(&mut x) >> 11) as f64 / (1u64 << 53) as f64 * sum;
            cdf.partition_point(|&c| c < u).min(objects - 1) as u32
        })
        .collect()
}

/// The yardstick and all the memory it uses, allocated once so a replay
/// allocates nothing.
pub struct Yardstick {
    /// The object stream.
    stream: Vec<u32>,
    /// LRU slot of each object, or [`NIL`].
    slot_of: Vec<u32>,
    /// Object in each slot.
    key: Vec<u32>,
    /// Neighbours of each slot in recency order.
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Scattered per-request metadata.
    meta: Vec<u64>,
}

impl Default for Yardstick {
    fn default() -> Self {
        Yardstick::with_size(REQUESTS, OBJECTS, CAPACITY, META_WORDS)
    }
}

impl Yardstick {
    /// A yardstick of `requests` over `objects`, with `capacity` LRU slots
    /// and `meta_words` (a power of two) of metadata.
    pub fn with_size(requests: usize, objects: usize, capacity: usize, meta_words: usize) -> Self {
        assert!(meta_words.is_power_of_two() && capacity > 0);
        Yardstick {
            stream: zipf_stream(requests, objects, 0x5EED_2003),
            slot_of: vec![NIL; objects],
            key: vec![NIL; capacity],
            prev: vec![NIL; capacity],
            next: vec![NIL; capacity],
            meta: vec![0; meta_words],
        }
    }

    /// Heap bytes the yardstick holds.
    pub fn heap_bytes(&self) -> usize {
        4 * (self.stream.len() + self.slot_of.len() + 3 * self.key.len()) + 8 * self.meta.len()
    }

    /// Requests in one replay.
    pub fn requests(&self) -> usize {
        self.stream.len()
    }

    /// One replay from an empty cache: each request reads and updates
    /// four scattered metadata words, then hits or fills its LRU slot.
    /// Returns the LRU hits and the wall seconds it took.
    pub fn run(&mut self) -> (u64, f64) {
        let t0 = Instant::now();
        self.slot_of.fill(NIL);
        let (mut head, mut tail, mut used) = (NIL, NIL, 0usize);
        let mut hits = 0u64;
        let mask = self.meta.len() - 1;
        for &o in &self.stream {
            let h = u64::from(o).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut acc = 0u64;
            for j in 0..4u32 {
                let i = ((h >> (j * 8)) as usize ^ (h as usize).rotate_left(j * 13)) & mask;
                acc = acc.wrapping_add(self.meta[i]);
                self.meta[i] = self.meta[i].wrapping_add(h ^ acc);
            }
            let s = self.slot_of[o as usize];
            let slot = if s != NIL {
                hits += 1;
                let (p, n) = (self.prev[s as usize], self.next[s as usize]);
                if p != NIL {
                    self.next[p as usize] = n
                } else {
                    head = n
                }
                if n != NIL {
                    self.prev[n as usize] = p
                } else {
                    tail = p
                }
                s
            } else if used < self.key.len() {
                used += 1;
                (used - 1) as u32
            } else {
                // Evict the least recently used object.
                let s = tail;
                let p = self.prev[s as usize];
                if p != NIL {
                    self.next[p as usize] = NIL
                } else {
                    head = NIL
                }
                tail = p;
                self.slot_of[self.key[s as usize] as usize] = NIL;
                s
            };
            self.key[slot as usize] = o;
            self.slot_of[o as usize] = slot;
            self.prev[slot as usize] = NIL;
            self.next[slot as usize] = head;
            if head != NIL {
                self.prev[head as usize] = slot;
            }
            head = slot;
            if tail == NIL {
                tail = slot;
            }
        }
        std::hint::black_box(&self.meta);
        (hits, t0.elapsed().as_secs_f64())
    }

    /// The factor that expresses a time measured next to a replay of
    /// `seconds` at the nominal host speed: below 1 when the host ran
    /// slow.
    pub fn speed_factor(&self, seconds: f64) -> f64 {
        NOMINAL_NS_PER_REQ / (seconds * 1e9 / self.requests() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hits of an LRU cache of `capacity` over `stream`, the slow way.
    fn lru_hits(stream: &[u32], capacity: usize) -> u64 {
        let mut order: Vec<u32> = Vec::new();
        let mut hits = 0;
        for &o in stream {
            if let Some(i) = order.iter().position(|&x| x == o) {
                hits += 1;
                order.remove(i);
            } else if order.len() == capacity {
                order.pop();
            }
            order.insert(0, o);
        }
        hits
    }

    #[test]
    fn replays_an_lru_cache_and_repeats_exactly() {
        let mut r = Yardstick::with_size(20_000, 300, 40, 1 << 10);
        let expected = lru_hits(&r.stream.clone(), 40);
        let (hits, secs) = r.run();
        assert_eq!(hits, expected);
        assert!(expected > 0 && expected < 20_000);
        assert!(secs > 0.0);
        assert_eq!(r.run().0, expected, "a second replay starts from an empty cache");
    }

    #[test]
    fn the_stream_is_fixed_and_skewed() {
        let a = zipf_stream(10_000, 100, 7);
        assert_eq!(a, zipf_stream(10_000, 100, 7));
        assert!(a.iter().all(|&o| o < 100));
        let top = a.iter().filter(|&&o| o == 0).count();
        let tail = a.iter().filter(|&&o| o == 99).count();
        assert!(top > 5 * tail, "{top} vs {tail}");
    }

    #[test]
    fn a_slow_replay_scales_times_down() {
        let r = Yardstick::with_size(1_000, 10, 2, 2);
        let nominal = NOMINAL_NS_PER_REQ * 1e-9 * 1_000.0;
        assert!((r.speed_factor(nominal) - 1.0).abs() < 1e-12);
        assert!((r.speed_factor(2.0 * nominal) - 0.5).abs() < 1e-12);
    }
}
