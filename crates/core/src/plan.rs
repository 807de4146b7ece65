//! Compilation of view-tree nodes into delta plans.
//!
//! A node's [`DeltaPlan`]s fix, ahead of time, everything the driver does
//! per update at that node:
//!
//! * the layout of the *assignment* (the variables bound while joining at a
//!   node, `local_vars = key(X) ∪ {X}`),
//! * for every updating child, the sequence of sibling probes (with the
//!   secondary index each probe uses) that extends a delta tuple of the
//!   child to full assignments of the node,
//! * which secondary indexes the sibling views must offer (registered at
//!   compile time, built lazily on first probe).
//!
//! Planning probes statically keeps the hot maintenance path free of any
//! decision making.

use fivm_common::{FivmError, Result, VarId};
use fivm_query::{ChildRef, ViewNode, ViewTree};

/// A marker for "this sibling column is already bound by the assignment".
pub const ALREADY_BOUND: usize = usize::MAX;

/// How a sibling is probed during delta propagation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProbeKind {
    /// The probe key covers the sibling's whole key: use the primary map.
    Primary,
    /// Use the secondary index with this id (per-view numbering).
    Index(usize),
}

/// One sibling probe performed while extending a delta assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaStep {
    /// Index (into the engine's view array) of the sibling being probed.
    pub sibling_view: usize,
    /// Primary-map or secondary-index probe.
    pub probe: ProbeKind,
    /// Assignment positions to gather, in the order expected by the probe
    /// (primary: the sibling's key order; index: the index's column order).
    pub probe_positions: Vec<usize>,
    /// For every column of the sibling's key: the assignment position to
    /// write the matched value into, or [`ALREADY_BOUND`] if the column was
    /// part of the probe.
    pub write_positions: Vec<usize>,
}

/// The full recipe for propagating a delta arriving from one child of a node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaPlan {
    /// For every column of the incoming delta tuple: its assignment position.
    pub scatter: Vec<usize>,
    /// Sibling probes, in execution order.
    pub steps: Vec<DeltaStep>,
    /// Assignment position of the node's own variable (read by the lift).
    pub var_position: usize,
    /// Assignment positions forming the output key (the node's `key_vars`).
    pub key_positions: Vec<usize>,
    /// Precomputed shortcut for probe-free (single-child) nodes: the output
    /// key and lifted variable read directly from delta-key columns, so the
    /// engine skips the assignment scatter/gather round-trip entirely.
    pub direct: Option<DirectEmit>,
}

/// Direct projection from an incoming delta key to a node's output, for
/// delta plans with no probe steps (every local variable is bound by the
/// updating child).  Positions are delta-key *columns*, not assignment
/// positions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirectEmit {
    /// Delta-key columns forming the output key, in `key_vars` order.
    pub key_cols: Vec<usize>,
    /// Delta-key column holding the node's own variable (read by the lift).
    pub var_col: usize,
    /// Whether `key_cols` is the identity over the *full* incoming delta
    /// key: the output key equals the input key, so its precomputed hash
    /// can be reused verbatim (no projection, no rehash).
    pub passthrough: bool,
}

/// A child of a node, as seen by the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChildInfo {
    /// Index into the engine's view array (lower view or relation leaf view).
    pub view_idx: usize,
    /// The variables of the child's key, in its column order.
    pub cover: Vec<VarId>,
}

/// The children of a view-tree node as [`ChildInfo`]s, numbering views
/// with `view_of` (the driver passes DAG node ids).
pub fn child_infos(
    tree: &ViewTree,
    node: &ViewNode,
    view_of: impl Fn(&ChildRef) -> usize,
) -> Vec<ChildInfo> {
    node.children
        .iter()
        .map(|c| ChildInfo {
            view_idx: view_of(c),
            cover: match c {
                ChildRef::View(v) => tree.node(*v).key_vars.clone(),
                ChildRef::Relation(r) => tree.spec().relation(*r).vars.clone(),
            },
        })
        .collect()
}

/// Compiles the delta plan for one `(node, updating child)` pair: the
/// scatter of the incoming delta tuple, the greedy sibling probe order and
/// the direct-emit shortcut for probe-free nodes.
///
/// `register_index(sibling_view, probe_cols)` is called whenever a probe
/// needs a secondary index on the sibling and must return the per-view
/// index id; the driver ([`crate::dag::DagEngine`]) registers them
/// directly on its shared views, so `ProbeKind::Index` ids line up with
/// `MaterializedView::ensure_index` order.
pub fn compile_delta_plan(
    node: &ViewNode,
    children: &[ChildInfo],
    updating_idx: usize,
    register_index: &mut dyn FnMut(usize, Vec<usize>) -> usize,
) -> Result<DeltaPlan> {
    // xlint:allow(no-panic): the expects below state plan-compiler invariants over an already-validated view tree (`remaining` non-empty while steps are being chosen; no-step plans cover every local var) — a failure is a compiler bug, and callers hold no partial plan to recover.
    let (node_id, var, key_vars, local_vars) =
        (node.id, node.var, &node.key_vars, &node.local_vars);
    let pos_of = |v: VarId| -> Result<usize> {
        local_vars.iter().position(|&x| x == v).ok_or_else(|| {
            FivmError::InvalidVariableOrder(format!(
                "variable {v} not among local variables of view {node_id}"
            ))
        })
    };
    let updating = &children[updating_idx];

    // Scatter: delta tuple columns (the child's cover) into the assignment.
    let scatter = updating
        .cover
        .iter()
        .map(|&v| pos_of(v))
        .collect::<Result<Vec<_>>>()?;

    let mut known: Vec<VarId> = updating.cover.clone();
    let mut remaining: Vec<usize> = (0..children.len())
        .filter(|&i| i != updating_idx)
        .collect();
    let mut steps = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        // Greedily pick the sibling sharing the most variables with the
        // already-bound set (ties by child order) to keep intermediate
        // fan-out small.
        let best_i = *remaining
            .iter()
            .max_by_key(|&&i| {
                let overlap = children[i]
                    .cover
                    .iter()
                    .filter(|v| known.contains(v))
                    .count();
                (overlap, usize::MAX - i)
            })
            .expect("remaining is non-empty");
        remaining.retain(|&i| i != best_i);
        let sibling = &children[best_i];

        // Probe columns: sibling key columns already bound.
        let probe_cols: Vec<usize> = sibling
            .cover
            .iter()
            .enumerate()
            .filter(|(_, v)| known.contains(v))
            .map(|(c, _)| c)
            .collect();
        let probe_positions = probe_cols
            .iter()
            .map(|&c| pos_of(sibling.cover[c]))
            .collect::<Result<Vec<_>>>()?;
        let probe = if probe_cols.len() == sibling.cover.len() {
            ProbeKind::Primary
        } else {
            // Register the secondary index on the sibling view.
            ProbeKind::Index(register_index(sibling.view_idx, probe_cols.clone()))
        };
        // For primary probes the gather order must be the sibling's full
        // key order.
        let probe_positions = if probe == ProbeKind::Primary {
            sibling
                .cover
                .iter()
                .map(|&v| pos_of(v))
                .collect::<Result<Vec<_>>>()?
        } else {
            probe_positions
        };

        let write_positions = sibling
            .cover
            .iter()
            .map(|&v| {
                if known.contains(&v) {
                    Ok(ALREADY_BOUND)
                } else {
                    pos_of(v)
                }
            })
            .collect::<Result<Vec<_>>>()?;
        for &v in &sibling.cover {
            if !known.contains(&v) {
                known.push(v);
            }
        }
        steps.push(DeltaStep {
            sibling_view: sibling.view_idx,
            probe,
            probe_positions,
            write_positions,
        });
    }

    // Sanity: all local variables are bound after all steps.
    for &v in local_vars {
        if !known.contains(&v) {
            return Err(FivmError::InvalidVariableOrder(format!(
                "variable {v} of view {node_id} is never bound when child {updating_idx} is updated"
            )));
        }
    }

    // Probe-free plans read everything from the delta key; map
    // output-key/var variables back to delta-key columns once, here,
    // instead of scattering per delta entry at runtime.
    let direct = if steps.is_empty() {
        let col_of = |v: VarId| {
            updating
                .cover
                .iter()
                .position(|&c| c == v)
                .expect("no-step plans bind every local var from the child")
        };
        let key_cols: Vec<usize> = key_vars.iter().map(|&v| col_of(v)).collect();
        let passthrough = key_cols.len() == updating.cover.len()
            && key_cols.iter().enumerate().all(|(i, &c)| i == c);
        Some(DirectEmit {
            key_cols,
            var_col: col_of(var),
            passthrough,
        })
    } else {
        None
    };

    Ok(DeltaPlan {
        scatter,
        steps,
        var_position: pos_of(var)?,
        key_positions: key_vars
            .iter()
            .map(|&v| pos_of(v))
            .collect::<Result<Vec<_>>>()?,
        direct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DagEngine;
    use fivm_data::figure1::figure1_tree;

    /// The node's children, numbering views in tree order (node `i` is view
    /// `i`, relation `r` is view `tree.len() + r`).
    fn children(tree: &ViewTree, node: usize) -> Vec<ChildInfo> {
        child_infos(tree, tree.node(node), |c| match c {
            ChildRef::View(v) => *v,
            ChildRef::Relation(r) => tree.len() + r,
        })
    }

    /// Every delta plan of a node.  Every Figure 1 probe covers the
    /// sibling's whole key, so no secondary index may be requested.
    fn delta_plans(tree: &ViewTree, node: usize) -> Vec<DeltaPlan> {
        let kids = children(tree, node);
        (0..kids.len())
            .map(|j| {
                compile_delta_plan(tree.node(node), &kids, j, &mut |_, _| {
                    panic!("Figure 1 needs no secondary index")
                })
                .unwrap()
            })
            .collect()
    }

    fn node_of(tree: &ViewTree, var: &str) -> usize {
        tree.vorder().node_of(tree.spec().var_id(var).unwrap())
    }

    #[test]
    fn plan_has_views_for_variables_and_leaves() {
        let tree = figure1_tree(false);
        let lifts = crate::apps::count_lifts(tree.spec());
        let mut dag: DagEngine<i64> = DagEngine::new();
        let q = dag.register(tree.clone(), lifts, None).unwrap();
        // One view per variable (4) and one per relation leaf (2).
        assert_eq!(dag.live_nodes(), 6);
        assert_eq!(dag.query_nodes(q).unwrap().len(), 6);
        for node in 0..tree.len() {
            delta_plans(&tree, node);
        }
    }

    #[test]
    fn root_delta_plans_probe_the_sibling_view() {
        let tree = figure1_tree(false);
        let a_node = node_of(&tree, "A");
        let plans = delta_plans(&tree, a_node);
        assert_eq!(plans.len(), 2);
        // When either child changes, the other is probed on its full key (A).
        for (j, dp) in plans.iter().enumerate() {
            assert_eq!(dp.steps.len(), 1);
            assert_eq!(dp.steps[0].probe, ProbeKind::Primary);
            assert_eq!(
                dp.steps[0].sibling_view,
                children(&tree, a_node)[1 - j].view_idx
            );
        }
        assert!(tree.node(a_node).key_vars.is_empty());
        assert_eq!(tree.node(a_node).parent, None);
    }

    #[test]
    fn single_child_nodes_have_no_probe_steps() {
        let tree = figure1_tree(false);
        let b_node = node_of(&tree, "B");
        let plans = delta_plans(&tree, b_node);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].steps.len(), 0);
        assert!(plans[0].direct.is_some());
        // The delta plan projects (A, B) down to (A).
        assert_eq!(plans[0].key_positions.len(), 1);
        // B's parent is the root.
        assert_eq!(tree.node(b_node).parent, Some(node_of(&tree, "A")));
    }

    #[test]
    fn leaf_plans_point_to_attachment_nodes() {
        let tree = figure1_tree(false);
        let spec = tree.spec().clone();
        for (r, var) in [(0, "B"), (1, "D")] {
            let attach = tree.attach_node(r);
            assert_eq!(tree.node(attach).var, spec.var_id(var).unwrap());
            let leaf = children(&tree, attach)
                .into_iter()
                .find(|c| c.view_idx == tree.len() + r)
                .expect("the attachment node lists the relation leaf");
            assert_eq!(leaf.cover, spec.relation(r).vars);
        }
    }
}
