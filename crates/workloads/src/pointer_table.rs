//! Distributed pointer-table generation for the DAPC / GBPC workloads.
//!
//! The table is a random permutation of `0..total_entries` arranged as a
//! single cycle, so a chase of any depth never terminates early and visits a
//! uniformly random sequence of shards.  Entries are distributed across the
//! servers in equal contiguous shards and "indexed using the server number
//! first" (Section IV-C): global index `g` lives on server `g / shard_size`
//! at local offset `g % shard_size`.

use tc_core::cluster::{Cluster, Transport};
use tc_core::layout::DATA_REGION_BASE;
use tc_simnet::SplitMix64;

/// In-place Fisher–Yates shuffle driven by [`SplitMix64`].
fn shuffle(values: &mut [u64], rng: &mut SplitMix64) {
    for i in (1..values.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        values.swap(i, j);
    }
}

/// A generated pointer table, before installation into server memories.
#[derive(Debug, Clone)]
pub struct PointerTable {
    /// Number of servers the table is sharded over.
    pub num_servers: usize,
    /// Entries per server.
    pub shard_size: usize,
    /// `table[g]` = next global index after `g`.
    pub entries: Vec<u64>,
}

impl PointerTable {
    /// Generate a single-cycle random permutation table with `shard_size`
    /// entries per server, deterministically from `seed`.
    pub fn generate(num_servers: usize, shard_size: usize, seed: u64) -> Self {
        assert!(num_servers > 0 && shard_size > 0);
        let total = num_servers * shard_size;
        let mut order: Vec<u64> = (0..total as u64).collect();
        let mut rng = SplitMix64::new(seed);
        shuffle(&mut order, &mut rng);
        // Build a single cycle following the shuffled order.
        let mut entries = vec![0u64; total];
        for i in 0..total {
            let from = order[i] as usize;
            let to = order[(i + 1) % total];
            entries[from] = to;
        }
        PointerTable {
            num_servers,
            shard_size,
            entries,
        }
    }

    /// Total number of entries.
    pub fn total_entries(&self) -> usize {
        self.entries.len()
    }

    /// 0-based index of the server owning global index `g`.  Convert to a
    /// fabric rank with `Cluster::server_rank(owner_index)` — server ranks
    /// start after the client ranks, so adding 1 is only correct on a
    /// single-client cluster.
    pub fn owner_index(&self, g: u64) -> usize {
        g as usize / self.shard_size
    }

    /// Server rank owning global index `g` on a *single-client* cluster
    /// (rank 0 is the one client, servers are 1-based).  Multi-client
    /// drivers must use [`PointerTable::owner_index`] with
    /// `Cluster::server_rank` instead.
    pub fn owner_rank(&self, g: u64) -> usize {
        self.owner_index(g) + 1
    }

    /// Address of global index `g` within its owner's memory.
    pub fn entry_addr(&self, g: u64) -> u64 {
        DATA_REGION_BASE + (g % self.shard_size as u64) * 8
    }

    /// Next index after `g` (ground truth, used by tests and by the GBPC
    /// client to verify results).
    pub fn next(&self, g: u64) -> u64 {
        self.entries[g as usize]
    }

    /// Ground-truth result of a chase of `depth` steps starting at `start`.
    pub fn chase(&self, start: u64, depth: u64) -> u64 {
        let mut idx = start;
        for _ in 0..depth {
            idx = self.next(idx);
        }
        idx
    }

    /// Serialised image of one server's shard (entries in local order).
    pub fn shard_image(&self, server: usize) -> Vec<u8> {
        let shard = &self.entries[server * self.shard_size..(server + 1) * self.shard_size];
        let mut image = Vec::with_capacity(shard.len() * 8);
        for value in shard {
            image.extend_from_slice(&value.to_le_bytes());
        }
        image
    }

    /// Install the table's shards into the server memories of any cluster
    /// backend through the transport's memory plane.
    pub fn install_cluster<T: Transport>(&self, cluster: &mut Cluster<T>) -> tc_core::Result<()> {
        assert_eq!(
            cluster.server_count(),
            self.num_servers,
            "cluster has a different number of servers than the table"
        );
        for server in 0..self.num_servers {
            // Shard images go to the *server* ranks, which start after the
            // client ranks (rank server + 1 only on a single-client cluster).
            cluster.write_memory(
                cluster.server_rank(server),
                DATA_REGION_BASE,
                &self.shard_image(server),
            )?;
        }
        Ok(())
    }

    /// Fraction of entries whose successor lives on a different server — the
    /// quantity that grows with the server count and explains the scalability
    /// trend in Figures 9–12.
    pub fn remote_fraction(&self) -> f64 {
        let total = self.total_entries();
        let remote = (0..total as u64)
            .filter(|&g| self.owner_rank(g) != self.owner_rank(self.next(g)))
            .count();
        remote as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_single_cycle() {
        let t = PointerTable::generate(4, 64, 7);
        let total = t.total_entries() as u64;
        let mut seen = vec![false; total as usize];
        let mut idx = 0u64;
        for _ in 0..total {
            assert!(!seen[idx as usize], "cycle shorter than the table");
            seen[idx as usize] = true;
            idx = t.next(idx);
        }
        assert_eq!(idx, 0, "walk of `total` steps must return to the start");
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = PointerTable::generate(2, 32, 42);
        let b = PointerTable::generate(2, 32, 42);
        let c = PointerTable::generate(2, 32, 43);
        assert_eq!(a.entries, b.entries);
        assert_ne!(a.entries, c.entries);
    }

    #[test]
    fn ownership_and_addressing() {
        let t = PointerTable::generate(4, 128, 1);
        assert_eq!(t.owner_rank(0), 1);
        assert_eq!(t.owner_rank(127), 1);
        assert_eq!(t.owner_rank(128), 2);
        assert_eq!(t.owner_rank(511), 4);
        assert_eq!(t.entry_addr(0), DATA_REGION_BASE);
        assert_eq!(t.entry_addr(129), DATA_REGION_BASE + 8);
    }

    #[test]
    fn remote_fraction_grows_with_server_count() {
        let few = PointerTable::generate(2, 256, 5).remote_fraction();
        let many = PointerTable::generate(16, 32, 5).remote_fraction();
        assert!(many > few, "remote fraction {many} should exceed {few}");
        // Expected remote fraction ≈ (S-1)/S.
        assert!((few - 0.5).abs() < 0.1);
        assert!((many - 15.0 / 16.0).abs() < 0.05);
    }

    #[test]
    fn chase_ground_truth_follows_entries() {
        let t = PointerTable::generate(2, 16, 9);
        let one = t.next(5);
        assert_eq!(t.chase(5, 1), one);
        assert_eq!(t.chase(5, 2), t.next(one));
        assert_eq!(t.chase(5, 0), 5);
    }
}
