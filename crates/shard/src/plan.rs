//! The shard plan: a query's partition metadata plus the shard count and
//! the row-routing hash.

use fivm_common::{FivmError, FxHasher, RelId, Result, Value, VarId};
use fivm_query::{PartitionPlan, RelationRouting, ViewTree};
use std::hash::{Hash, Hasher};

/// Deterministic, dictionary-independent hash of a raw value, used to route
/// rows to shards.
///
/// Routing must agree for equal values across the whole lifetime of a
/// deployment and across shards, so it hashes the *raw* [`Value`] (whose
/// `Hash` goes through the canonical `OrdF64` bits for doubles — `-0.0`
/// and every NaN route like their normalized forms, matching key
/// equality) with the unseeded Fx mixer.  Dictionary-encoded words are
/// unusable here: string ids are dictionary-local and each shard owns its
/// own `Dict`.
pub fn route_hash(v: &Value) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// A compiled sharding decision: which variable partitions the data, how
/// each relation's rows reach the shards, and how many shards there are.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    partition: PartitionPlan,
    num_shards: usize,
}

impl ShardPlan {
    /// Derives a plan for a view tree, choosing the partition variable
    /// automatically (prefer the variable-order root covering the most
    /// relations; see [`PartitionPlan::choose`]).
    pub fn new(tree: &ViewTree, num_shards: usize) -> Result<ShardPlan> {
        let partition = PartitionPlan::choose(tree.spec(), tree.vorder())?;
        Self::from_partition(partition, num_shards)
    }

    fn from_partition(partition: PartitionPlan, num_shards: usize) -> Result<ShardPlan> {
        if num_shards == 0 {
            return Err(FivmError::InvalidQuery(
                "a sharded engine needs at least one shard".into(),
            ));
        }
        Ok(ShardPlan {
            partition,
            num_shards,
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The partition variable.
    pub fn partition_var(&self) -> VarId {
        self.partition.var()
    }

    /// Routing of one relation.
    pub fn routing(&self, rel: RelId) -> RelationRouting {
        self.partition.routing(rel)
    }

    /// The underlying per-relation partition metadata.
    pub fn partition(&self) -> &PartitionPlan {
        &self.partition
    }

    /// The shard owning a partition-variable value.
    #[inline]
    pub fn shard_of(&self, v: &Value) -> usize {
        (route_hash(v) % self.num_shards as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fivm_data::figure1::figure1_tree;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let plan = ShardPlan::new(&figure1_tree(false), 4).unwrap();
        for i in 0..1000i64 {
            let v = Value::int(i);
            let s = plan.shard_of(&v);
            assert!(s < 4);
            assert_eq!(s, plan.shard_of(&Value::int(i)));
        }
    }

    #[test]
    fn every_shard_owns_some_keys() {
        let plan = ShardPlan::new(&figure1_tree(false), 4).unwrap();
        let mut seen = [false; 4];
        for i in 0..64i64 {
            seen[plan.shard_of(&Value::int(i))] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 keys left a shard empty: {seen:?}");
    }

    #[test]
    fn doubles_route_by_canonical_bits() {
        let plan = ShardPlan::new(&figure1_tree(false), 7).unwrap();
        assert_eq!(
            plan.shard_of(&Value::double(0.0)),
            plan.shard_of(&Value::double(-0.0))
        );
        assert_eq!(
            plan.shard_of(&Value::double(f64::NAN)),
            plan.shard_of(&Value::double(-f64::NAN))
        );
    }

    #[test]
    fn zero_shards_is_rejected() {
        assert!(ShardPlan::new(&figure1_tree(false), 0).is_err());
    }
}
