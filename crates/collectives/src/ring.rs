//! Ring collectives over an arbitrary member subset.
//!
//! Every function takes a `members` slice — the global ranks participating,
//! in a fixed order shared by all callers — and the calling rank must be one
//! of them. Sub-communicators are therefore just rank lists: the 2D-torus
//! and hierarchical algorithms pass "the GPUs of my node" or "the j-th GPU
//! of every node".
//!
//! Every primitive is written once over the [`Link`] transport, so the same
//! schedule runs over a plain [`crate::Peer`] or a fault-charging wrapper
//! (`ResilientPeer` walks each hop through its retry ladder; the payloads
//! always arrive, so the results are bitwise identical).
//!
//! Chunking follows `cloudtrain_tensor::partition`: member `r` (by position
//! in `members`) ends a ReduceScatter owning shard `r`, matching Eq. (4) of
//! the paper where GPU `j` owns the `j`-th `d/n` segment.

use cloudtrain_tensor::ops;
use cloudtrain_tensor::partition::{shard_for, shards, Shard};

use crate::group::{member_index, Link};
use crate::scratch::CommScratch;

/// Ring ReduceScatter over `members`: on return, `x` holds the fully
/// reduced values in this member's own shard (other positions of `x` hold
/// partial sums and must be treated as garbage). Returns the owned shard.
///
/// Cost: `P-1` steps, each transferring `d/P` elements — Eq. (7) with
/// per-byte volume `(P-1) d/P`.
pub fn ring_reduce_scatter<L: Link + ?Sized>(link: &L, x: &mut [f32], members: &[usize]) -> Shard {
    ring_reduce_scatter_scratch(link, x, members, &mut CommScratch::new())
}

/// [`ring_reduce_scatter`] drawing its per-hop send buffers from `scratch`.
///
/// Each hop takes one pooled buffer (the outgoing copy) and recycles the
/// buffer it received, so the pool's flow is balanced and steady-state
/// iterations allocate nothing.
pub fn ring_reduce_scatter_scratch<L: Link + ?Sized>(
    link: &L,
    x: &mut [f32],
    members: &[usize],
    scratch: &mut CommScratch,
) -> Shard {
    let p = members.len();
    let me = member_index(members, link.rank());
    let d = x.len();
    if p == 1 {
        return shard_for(d, 1, 0);
    }
    let chunks = shards(d, p);
    let right = members[(me + 1) % p];
    let left = members[(me + p - 1) % p];

    // Step s: send chunk (me - s - 1) mod p, receive and accumulate chunk
    // (me - s - 2) mod p. After p-1 steps this member fully owns chunk `me`.
    for s in 0..p - 1 {
        let send_idx = (me + p - s - 1) % p;
        let recv_idx = (me + 2 * p - s - 2) % p;
        let send_chunk = scratch.copy_f32(chunks[send_idx].slice(x));
        link.send_f32(right, send_chunk);
        let recv = link.recv_f32(left);
        ops::add_assign(chunks[recv_idx].slice_mut(x), &recv);
        scratch.put_f32(recv);
    }
    chunks[me]
}

/// Ring AllGather over `members`: each member contributes its own shard of
/// `x` (shard `r` for member position `r`) and on return every member's `x`
/// holds all shards.
///
/// Cost: `P-1` steps of `d/P` elements each.
pub fn ring_all_gather<L: Link + ?Sized>(link: &L, x: &mut [f32], members: &[usize]) {
    ring_all_gather_scratch(link, x, members, &mut CommScratch::new());
}

/// [`ring_all_gather`] drawing its per-hop send buffers from `scratch`
/// (take one, recycle one — see [`ring_reduce_scatter_scratch`]).
pub fn ring_all_gather_scratch<L: Link + ?Sized>(
    link: &L,
    x: &mut [f32],
    members: &[usize],
    scratch: &mut CommScratch,
) {
    let p = members.len();
    let me = member_index(members, link.rank());
    if p == 1 {
        return;
    }
    let chunks = shards(x.len(), p);
    let right = members[(me + 1) % p];
    let left = members[(me + p - 1) % p];

    // Step s: forward chunk (me - s) mod p, receive chunk (me - s - 1) mod p.
    for s in 0..p - 1 {
        let send_idx = (me + p - s) % p;
        let recv_idx = (me + 2 * p - s - 1) % p;
        let send_chunk = scratch.copy_f32(chunks[send_idx].slice(x));
        link.send_f32(right, send_chunk);
        let recv = link.recv_f32(left);
        chunks[recv_idx].slice_mut(x).copy_from_slice(&recv);
        scratch.put_f32(recv);
    }
}

/// Ring AllReduce = ReduceScatter + AllGather. On return every member's `x`
/// holds the element-wise sum over all members.
pub fn ring_all_reduce<L: Link + ?Sized>(link: &L, x: &mut [f32], members: &[usize]) {
    ring_all_reduce_scratch(link, x, members, &mut CommScratch::new());
}

/// [`ring_all_reduce`] drawing all per-hop buffers from `scratch`.
pub fn ring_all_reduce_scratch<L: Link + ?Sized>(
    link: &L,
    x: &mut [f32],
    members: &[usize],
    scratch: &mut CommScratch,
) {
    ring_reduce_scatter_scratch(link, x, members, scratch);
    ring_all_gather_scratch(link, x, members, scratch);
}

/// The two wire element types — `f32` values and `u32` indices — so the
/// variable-payload AllGather is written once.
trait Wire: Copy {
    fn send<L: Link + ?Sized>(link: &L, to: usize, data: Vec<Self>);
    fn recv<L: Link + ?Sized>(link: &L, from: usize) -> Vec<Self>;
    fn copy(scratch: &mut CommScratch, src: &[Self]) -> Vec<Self>;
}

impl Wire for f32 {
    fn send<L: Link + ?Sized>(link: &L, to: usize, data: Vec<f32>) {
        link.send_f32(to, data);
    }
    fn recv<L: Link + ?Sized>(link: &L, from: usize) -> Vec<f32> {
        link.recv_f32(from)
    }
    fn copy(scratch: &mut CommScratch, src: &[f32]) -> Vec<f32> {
        scratch.copy_f32(src)
    }
}

impl Wire for u32 {
    fn send<L: Link + ?Sized>(link: &L, to: usize, data: Vec<u32>) {
        link.send_u32(to, data);
    }
    fn recv<L: Link + ?Sized>(link: &L, from: usize) -> Vec<u32> {
        link.recv_u32(from)
    }
    fn copy(scratch: &mut CommScratch, src: &[u32]) -> Vec<u32> {
        scratch.copy_u32(src)
    }
}

/// Ring pipeline of variable blocks: `P-1` steps forwarding the youngest
/// block, each hop a pooled copy (the forwarded block stays in `blocks`
/// for the caller while its copy rides the channel).
fn all_gather_blocks<T: Wire, L: Link + ?Sized>(
    link: &L,
    mine: &[T],
    members: &[usize],
    scratch: &mut CommScratch,
) -> Vec<Vec<T>> {
    let p = members.len();
    let me = member_index(members, link.rank());
    let mut blocks: Vec<Option<Vec<T>>> = (0..p).map(|_| None).collect();
    blocks[me] = Some(T::copy(scratch, mine));
    let right = members[(me + 1) % p];
    let left = members[(me + p - 1) % p];
    for s in 0..p - 1 {
        let send_idx = (me + p - s) % p;
        let recv_idx = (me + 2 * p - s - 1) % p;
        // lint:allow(panic_free, reason = "the ring schedule fills block s before step s sends it; a hole is an unconditional schedule bug")
        let src = blocks[send_idx].as_deref().expect("ring schedule hole");
        let payload = T::copy(scratch, src);
        T::send(link, right, payload);
        blocks[recv_idx] = Some(T::recv(link, left));
    }
    // lint:allow(panic_free, reason = "after p-1 ring steps every block has been received; a hole is an unconditional schedule bug")
    blocks.into_iter().map(Option::unwrap).collect()
}

/// AllGather of variable payloads: every member contributes `mine` and
/// receives the concatenation of all members' payloads in member order.
///
/// This is the primitive behind the sparse AllGathers of Algorithm 2 (lines
/// 12–13), where each member contributes exactly `k` values and `k` indices.
/// Implemented as a ring pipeline: `P-1` steps forwarding the youngest
/// block.
pub fn all_gather_f32<L: Link + ?Sized>(
    link: &L,
    mine: &[f32],
    members: &[usize],
) -> Vec<Vec<f32>> {
    all_gather_f32_scratch(link, mine, members, &mut CommScratch::new())
}

/// [`all_gather_f32`] drawing its block copies from `scratch`.
///
/// Ownership contract: the returned blocks belong to the caller; to keep
/// the pool balanced across iterations the caller should `put_f32` each
/// block back once consumed (the hierarchical collectives do).
pub fn all_gather_f32_scratch<L: Link + ?Sized>(
    link: &L,
    mine: &[f32],
    members: &[usize],
    scratch: &mut CommScratch,
) -> Vec<Vec<f32>> {
    all_gather_blocks(link, mine, members, scratch)
}

/// AllGather of index payloads (see [`all_gather_f32`]).
pub fn all_gather_u32<L: Link + ?Sized>(
    link: &L,
    mine: &[u32],
    members: &[usize],
) -> Vec<Vec<u32>> {
    all_gather_u32_scratch(link, mine, members, &mut CommScratch::new())
}

/// [`all_gather_u32`] drawing its block copies from `scratch` (ownership
/// contract as in [`all_gather_f32_scratch`]).
pub fn all_gather_u32_scratch<L: Link + ?Sized>(
    link: &L,
    mine: &[u32],
    members: &[usize],
    scratch: &mut CommScratch,
) -> Vec<Vec<u32>> {
    all_gather_blocks(link, mine, members, scratch)
}

/// Packs a `(values, indices)` pair into one `u32` frame
/// `[len, indices…, value-bits…]` (values ride as `f32::to_bits`
/// reinterpretations; no arithmetic ever touches the bit-cast words).
pub(crate) fn frame_pair(values: &[f32], indices: &[u32], scratch: &mut CommScratch) -> Vec<u32> {
    let mut frame = scratch.take_u32(0);
    frame.push(values.len() as u32);
    frame.extend(indices.iter().copied());
    frame.extend(values.iter().map(|v| v.to_bits()));
    frame
}

/// Unpacks a frame built by [`frame_pair`], recycling the frame buffer.
pub(crate) fn unframe_pair(block: Vec<u32>, scratch: &mut CommScratch) -> (Vec<f32>, Vec<u32>) {
    let mut words = block.iter().copied();
    let len = words.next().unwrap_or(0) as usize;
    let mut idxs = scratch.take_u32(0);
    idxs.extend(words.by_ref().take(len));
    let mut vals = scratch.take_f32(0);
    vals.extend(words.by_ref().take(len).map(f32::from_bits));
    scratch.put_u32(block);
    (vals, idxs)
}

/// AllGather of `(values, indices)` pairs in **one** ring pipeline.
///
/// The separate [`all_gather_f32`] + [`all_gather_u32`] idiom runs two
/// serialized `P-1`-hop pipelines over the same members — `2(P-1)` channel
/// round-trips for what is logically one block exchange. This primitive
/// frames each member's pair as a single `u32` payload
/// `[len, indices…, value-bits…]` (values ride as `f32::to_bits`
/// reinterpretations), so the exchange costs `P-1` hops. Blocks come back
/// split into owned `(values, indices)` pairs in member order, bit-exact —
/// downstream consumers see exactly what the two-pipeline idiom would have
/// produced.
///
/// Ownership contract as in [`all_gather_f32_scratch`]: the caller recycles
/// each returned pair (`put_f32` + `put_u32`) once consumed.
pub fn all_gather_pairs_scratch<L: Link + ?Sized>(
    link: &L,
    values: &[f32],
    indices: &[u32],
    members: &[usize],
    scratch: &mut CommScratch,
) -> Vec<(Vec<f32>, Vec<u32>)> {
    assert_eq!(
        values.len(),
        indices.len(),
        "all_gather_pairs: values and indices must pair up"
    );
    let mine = frame_pair(values, indices, scratch);
    let framed = all_gather_u32_scratch(link, &mine, members, scratch);
    scratch.put_u32(mine);
    framed
        .into_iter()
        .map(|block| unframe_pair(block, scratch))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::run_on_group;
    use cloudtrain_tensor::init;

    /// Per-rank deterministic test vector.
    fn vec_for(rank: usize, d: usize) -> Vec<f32> {
        let mut rng = init::rng_from_seed(1000 + rank as u64);
        init::uniform_tensor(d, -1.0, 1.0, &mut rng).into_vec()
    }

    fn expected_sum(p: usize, d: usize) -> Vec<f32> {
        let mut acc = vec![0.0; d];
        for r in 0..p {
            ops::add_assign(&mut acc, &vec_for(r, d));
        }
        acc
    }

    #[test]
    fn all_reduce_matches_sequential_sum() {
        for (p, d) in [(2usize, 10usize), (4, 37), (8, 64), (3, 5)] {
            let members: Vec<usize> = (0..p).collect();
            let expect = expected_sum(p, d);
            let results = run_on_group(p, |peer| {
                let mut x = vec_for(peer.rank(), d);
                ring_all_reduce(peer, &mut x, &members);
                x
            });
            for (r, x) in results.iter().enumerate() {
                assert!(
                    ops::approx_eq(x, &expect, 1e-4),
                    "p={p} d={d} rank {r} diverged"
                );
            }
        }
    }

    #[test]
    fn all_reduce_is_bitwise_identical_across_ranks() {
        let p = 8;
        let d = 1000;
        let members: Vec<usize> = (0..p).collect();
        let results = run_on_group(p, |peer| {
            let mut x = vec_for(peer.rank(), d);
            ring_all_reduce(peer, &mut x, &members);
            x
        });
        for r in 1..p {
            assert_eq!(results[0], results[r], "rank {r} differs bitwise");
        }
    }

    #[test]
    fn reduce_scatter_owns_correct_shard() {
        let p = 4;
        let d = 26; // non-divisible: shards of 7,7,6,6
        let members: Vec<usize> = (0..p).collect();
        let expect = expected_sum(p, d);
        let results = run_on_group(p, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let shard = ring_reduce_scatter(peer, &mut x, &members);
            (shard, x)
        });
        for (r, (shard, x)) in results.iter().enumerate() {
            assert_eq!(*shard, shard_for(d, p, r));
            assert!(
                ops::approx_eq(shard.slice(x), shard.slice(&expect), 1e-4),
                "rank {r} shard wrong"
            );
        }
    }

    #[test]
    fn all_gather_reconstructs_vector() {
        let p = 4;
        let d = 26;
        let members: Vec<usize> = (0..p).collect();
        // Start from a known full vector; each rank zeroes everything except
        // its shard, then AllGather must reconstruct the whole.
        let full: Vec<f32> = (0..d).map(|i| i as f32).collect();
        let results = run_on_group(p, |peer| {
            let mut x = vec![0.0; d];
            let s = shard_for(d, p, peer.rank());
            s.slice_mut(&mut x).copy_from_slice(s.slice(&full));
            ring_all_gather(peer, &mut x, &members);
            x
        });
        for x in &results {
            assert_eq!(*x, full);
        }
    }

    #[test]
    fn subset_collectives_leave_non_members_untouched() {
        let p = 6;
        let d = 12;
        let members = vec![1usize, 3, 5];
        let results = run_on_group(p, |peer| {
            let mut x = vec![peer.rank() as f32; d];
            if members.contains(&peer.rank()) {
                ring_all_reduce(peer, &mut x, &members);
            }
            x
        });
        let expect_sum = vec![(1 + 3 + 5) as f32; d];
        for &m in &members {
            assert_eq!(results[m], expect_sum);
        }
        for r in [0usize, 2, 4] {
            assert_eq!(results[r], vec![r as f32; d]);
        }
    }

    #[test]
    fn variable_all_gather_returns_blocks_in_member_order() {
        let p = 3;
        let members: Vec<usize> = (0..p).collect();
        let results = run_on_group(p, |peer| {
            let mine = vec![peer.rank() as f32; peer.rank() + 1];
            all_gather_f32(peer, &mine, &members)
        });
        for blocks in &results {
            assert_eq!(blocks.len(), 3);
            for (r, b) in blocks.iter().enumerate() {
                assert_eq!(*b, vec![r as f32; r + 1]);
            }
        }
    }

    #[test]
    fn u32_all_gather_matches() {
        let p = 4;
        let members: Vec<usize> = (0..p).collect();
        let results = run_on_group(p, |peer| {
            let mine = vec![peer.rank() as u32 * 10, peer.rank() as u32 * 10 + 1];
            all_gather_u32(peer, &mine, &members)
        });
        for blocks in &results {
            for (r, b) in blocks.iter().enumerate() {
                assert_eq!(*b, vec![r as u32 * 10, r as u32 * 10 + 1]);
            }
        }
    }

    #[test]
    fn scratch_variants_are_bitwise_identical_to_plain() {
        let (p, d) = (4usize, 53usize);
        let members: Vec<usize> = (0..p).collect();
        let plain = run_on_group(p, |peer| {
            let mut x = vec_for(peer.rank(), d);
            ring_all_reduce(peer, &mut x, &members);
            let blocks = all_gather_f32(peer, &x[..5], &members);
            let idx = all_gather_u32(peer, &[peer.rank() as u32; 3], &members);
            (x, blocks, idx)
        });
        let scratched = run_on_group(p, |peer| {
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            ring_all_reduce_scratch(peer, &mut x, &members, &mut scratch);
            let blocks = all_gather_f32_scratch(peer, &x[..5], &members, &mut scratch);
            let idx =
                all_gather_u32_scratch(peer, &[peer.rank() as u32; 3], &members, &mut scratch);
            (x, blocks, idx)
        });
        assert_eq!(plain, scratched);
    }

    #[test]
    fn ring_collectives_reach_zero_miss_steady_state() {
        let (p, d) = (4usize, 26usize);
        let members: Vec<usize> = (0..p).collect();
        let miss_growth = run_on_group(p, |peer| {
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            // Warmup iteration populates the pool...
            ring_all_reduce_scratch(peer, &mut x, &members, &mut scratch);
            let warm = scratch.misses();
            // ...after which further iterations must not allocate at all.
            for round in 0..3 {
                let mut y = vec_for(10 * round + peer.rank(), d);
                ring_all_reduce_scratch(peer, &mut y, &members, &mut scratch);
            }
            (warm, scratch.misses())
        });
        for (r, (warm, total)) in miss_growth.iter().enumerate() {
            assert!(*warm > 0, "rank {r}: warmup should allocate");
            assert_eq!(total, warm, "rank {r}: steady state allocated");
        }
    }

    #[test]
    fn variable_gather_pool_balances_when_blocks_are_recycled() {
        let (p, k) = (3usize, 8usize);
        let members: Vec<usize> = (0..p).collect();
        let miss_growth = run_on_group(p, |peer| {
            let mut scratch = CommScratch::new();
            let payload = vec![peer.rank() as f32; k];
            let warm = {
                let blocks = all_gather_f32_scratch(peer, &payload, &members, &mut scratch);
                for b in blocks {
                    scratch.put_f32(b);
                }
                scratch.misses()
            };
            for _ in 0..3 {
                let blocks = all_gather_f32_scratch(peer, &payload, &members, &mut scratch);
                for b in blocks {
                    scratch.put_f32(b);
                }
            }
            (warm, scratch.misses())
        });
        for (warm, total) in &miss_growth {
            assert_eq!(total, warm, "recycled gathers must not re-allocate");
        }
    }

    #[test]
    fn single_member_collectives_are_identity() {
        let results = run_on_group(1, |peer| {
            let mut x = vec![1.0, 2.0];
            ring_all_reduce(peer, &mut x, &[0]);
            let blocks = all_gather_f32(peer, &x, &[0]);
            (x, blocks)
        });
        assert_eq!(results[0].0, vec![1.0, 2.0]);
        assert_eq!(results[0].1, vec![vec![1.0, 2.0]]);
    }
}
