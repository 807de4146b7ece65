//! Canonical, `Eq`/`Hash`-able structural fingerprints for view-tree nodes
//! and relation schemas.
//!
//! Cloning one [`crate::ViewTree`] into several engines (one per shard)
//! gives them equal plans but says nothing about two *different* queries.
//! A multi-query deployment needs *structural* identity — "these two
//! queries maintain the same view over the same sub-join" — so equal
//! prefixes across independently built queries can unify into shared DAG
//! nodes (see `fivm_core::dag`).
//!
//! A [`NodeFingerprint`] is the recursive canonical form of one view and
//! its entire subtree:
//!
//! * the marginalized variable (by **name** and kind — `VarId`s are
//!   per-spec and carry no cross-query meaning),
//! * an opaque per-variable `label` supplied by the caller (the DAG passes
//!   the lift name here, so two views that compute different aggregates
//!   over the same join never unify; the plain structural form uses `""`),
//! * the view's key variables, **in key order** — the key order determines
//!   the physical column layout of the materialized view, so two views
//!   whose keys list the same variables in different orders are *not*
//!   interchangeable and deliberately fingerprint differently,
//! * the children in declared child order, each either a full recursive
//!   [`NodeFingerprint`] or a [`RelationFingerprint`] leaf.
//!
//! Because the form is recursive, fingerprint equality of two nodes implies
//! their whole subtrees are structurally identical — equal join structure,
//! equal view keys at every level, equal probe/index schemas after plan
//! compilation, and (with labels) equal lifts.  That is exactly the
//! property that makes it safe to maintain one shared view for both.

use crate::spec::QuerySpec;
use crate::view_tree::{ChildRef, ViewTree};
use fivm_common::{AttrKind, RelId, VarId};

/// Canonical form of one query variable: its name and kind.  Names are the
/// cross-query identity — two specs declaring `locn` categorical mean the
/// same column regardless of the `VarId` each assigned.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct VarFingerprint {
    /// The variable's name.
    pub name: String,
    /// Continuous or categorical.
    pub kind: AttrKind,
}

/// Canonical form of a base-relation schema: the relation's name and its
/// columns (as [`VarFingerprint`]s) in column order.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RelationFingerprint {
    /// The relation (table) name.
    pub name: String,
    /// The columns, in schema order.
    pub cols: Vec<VarFingerprint>,
}

/// One child of a view node, in canonical form.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ChildFingerprint {
    /// A lower view, recursively fingerprinted.
    View(NodeFingerprint),
    /// A base-relation leaf.
    Relation(RelationFingerprint),
}

/// The recursive canonical form of a view-tree node (see module docs).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct NodeFingerprint {
    /// The variable this view marginalizes (or keeps, when free).
    pub var: VarFingerprint,
    /// Caller-supplied per-variable label (the DAG passes the lift name);
    /// `""` in the plain structural form.
    pub label: String,
    /// The view's key variable names, in key order.  A free (group-by)
    /// variable appears in its own view's key, so "kept vs marginalized"
    /// is part of the fingerprint without a separate flag.
    pub key: Vec<String>,
    /// The children, in declared child order.
    pub children: Vec<ChildFingerprint>,
}

/// The canonical form of a relation's schema.
pub fn relation_fingerprint(spec: &QuerySpec, rel: RelId) -> RelationFingerprint {
    let def = spec.relation(rel);
    RelationFingerprint {
        name: def.name.clone(),
        cols: def
            .vars
            .iter()
            .map(|&v| VarFingerprint {
                name: spec.var_name(v).to_string(),
                kind: spec.var(v).kind,
            })
            .collect(),
    }
}

/// Per-node structural fingerprints of a view tree (indexed by node id),
/// with every label empty.
pub fn tree_fingerprints(tree: &ViewTree) -> Vec<NodeFingerprint> {
    tree_fingerprints_labeled(tree, &|_| String::new())
}

/// Per-node fingerprints with a caller-supplied per-variable label — the
/// DAG layer passes each variable's lift name so that views differing only
/// in the aggregate they compute do not unify.
pub fn tree_fingerprints_labeled(
    tree: &ViewTree,
    label: &dyn Fn(VarId) -> String,
) -> Vec<NodeFingerprint> {
    let spec = tree.spec();
    let mut fps: Vec<Option<NodeFingerprint>> = vec![None; tree.len()];
    // Descendants have larger node ids; visiting bottom-up means every
    // child fingerprint exists when its parent is assembled.
    for idx in tree.bottom_up() {
        let node = tree.node(idx);
        let children = node
            .children
            .iter()
            .map(|c| match c {
                ChildRef::View(v) => {
                    ChildFingerprint::View(fps[*v].clone().expect("child computed bottom-up"))
                }
                ChildRef::Relation(r) => {
                    ChildFingerprint::Relation(relation_fingerprint(spec, *r))
                }
            })
            .collect();
        fps[idx] = Some(NodeFingerprint {
            var: VarFingerprint {
                name: spec.var_name(node.var).to_string(),
                kind: spec.var(node.var).kind,
            },
            label: label(node.var),
            key: node
                .key_vars
                .iter()
                .map(|&v| spec.var_name(v).to_string())
                .collect(),
            children,
        });
    }
    fps.into_iter()
        .map(|fp| fp.expect("every node fingerprinted"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::figure1_query;
    use crate::ViewTree;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn figure1_tree(categorical_c: bool, group_by_a: bool) -> ViewTree {
        let mut spec = figure1_query(categorical_c);
        if group_by_a {
            // Rebuild with A free.
            let mut b = QuerySpec::builder("figure1_grouped");
            let a = b.key("A");
            b.continuous_feature("B");
            if categorical_c {
                b.categorical_feature("C");
            } else {
                b.continuous_feature("C");
            }
            b.continuous_feature("D");
            b.relation("R", &[0, 1]);
            b.relation("S", &[0, 2, 3]);
            b.group_by(&[a]);
            spec = b.build().unwrap();
        }
        let a = spec.var_id("A").unwrap();
        let c = spec.var_id("C").unwrap();
        let mut parents = vec![None; 4];
        parents[spec.var_id("B").unwrap()] = Some(a);
        parents[c] = Some(a);
        parents[spec.var_id("D").unwrap()] = Some(c);
        ViewTree::from_parent_vars(spec, &parents).unwrap()
    }

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn structurally_equal_specs_produce_equal_fingerprints() {
        // Two independently built (pointer-distinct) trees of the same
        // query must agree node by node, including under Hash.
        let t1 = figure1_tree(false, false);
        let t2 = figure1_tree(false, false);
        let f1 = tree_fingerprints(&t1);
        let f2 = tree_fingerprints(&t2);
        assert_eq!(f1, f2);
        for (a, b) in f1.iter().zip(&f2) {
            assert_eq!(hash_of(a), hash_of(b));
        }
    }

    #[test]
    fn group_by_changes_only_the_affected_prefix() {
        // Grouping by the root variable A changes the root view (A is kept
        // in its key) but leaves every view *below* it untouched — the
        // sharing opportunity the DAG exploits.
        let plain = figure1_tree(false, false);
        let grouped = figure1_tree(false, true);
        let fp = tree_fingerprints(&plain);
        let fg = tree_fingerprints(&grouped);
        let root_p = plain.roots()[0];
        let root_g = grouped.roots()[0];
        assert_ne!(fp[root_p], fg[root_g]);
        assert!(fg[root_g].key.contains(&"A".to_string()));
        // The children of the two roots are identical subtrees.
        assert_eq!(fp[root_p].children, fg[root_g].children);
    }

    #[test]
    fn attribute_kind_is_part_of_the_fingerprint() {
        let cont = tree_fingerprints(&figure1_tree(false, false));
        let cat = tree_fingerprints(&figure1_tree(true, false));
        // C's kind differs, so C's node (and every ancestor) differs...
        let c_node = figure1_tree(false, false)
            .vorder()
            .node_of(figure1_tree(false, false).spec().var_id("C").unwrap());
        assert_ne!(cont[c_node], cat[c_node]);
        // ...but B's subtree (which never mentions C) is unchanged.
        let tree = figure1_tree(false, false);
        let b_node = tree.vorder().node_of(tree.spec().var_id("B").unwrap());
        assert_eq!(cont[b_node], cat[b_node]);
    }

    #[test]
    fn labels_distinguish_otherwise_equal_structures() {
        let tree = figure1_tree(false, false);
        let plain = tree_fingerprints(&tree);
        let spec = tree.spec().clone();
        let b = spec.var_id("B").unwrap();
        let labeled = tree_fingerprints_labeled(&tree, &|v| {
            if v == b {
                "covar[0](B)".to_string()
            } else {
                String::new()
            }
        });
        let b_node = tree.vorder().node_of(b);
        assert_ne!(plain[b_node], labeled[b_node]);
        // The D subtree carries no B, so its fingerprint is unaffected.
        let d_node = tree.vorder().node_of(spec.var_id("D").unwrap());
        assert_eq!(plain[d_node], labeled[d_node]);
    }

    #[test]
    fn relation_fingerprints_capture_name_and_schema() {
        let spec = figure1_query(false);
        let r = relation_fingerprint(&spec, 0);
        assert_eq!(r.name, "R");
        assert_eq!(r.cols.len(), 2);
        assert_eq!(r.cols[0].name, "A");
        // Equal across rebuilds, distinct across relations.
        assert_eq!(r, relation_fingerprint(&figure1_query(false), 0));
        assert_ne!(r, relation_fingerprint(&spec, 1));
    }
}
