#![forbid(unsafe_code)]
//! Application-specific rings for F-IVM.
//!
//! F-IVM maintains aggregates over joins by storing, for every key of every
//! materialized view, a *payload* drawn from a ring `(R, +, *, 0, 1)`.  The
//! maintenance algorithm only ever adds, multiplies and negates payloads, so
//! swapping the ring swaps the application without touching the engine:
//!
//! | Ring | Application |
//! |------|-------------|
//! | [`i64`] (`Z`) | tuple multiplicities, count aggregates |
//! | [`f64`] | single sum/product aggregates |
//! | [`Cofactor`] | COVAR matrix over continuous attributes → ridge linear regression |
//! | [`RelValue`] | the relation ring → factorized conjunctive query evaluation |
//! | [`GenCofactor`] | COVAR/MI over mixed continuous and categorical attributes → model selection, Chow-Liu trees |
//! | [`PairRing`] | product of two rings (compose applications) |
//!
//! Inserts and deletes are handled uniformly: a delete is an insert whose
//! payload is the additive inverse ([`Ring::neg`]).
//!
//! The [`lift`] module provides the *attribute functions* `g_X` from the
//! paper: per-variable maps from attribute values into ring elements, applied
//! by the engine when a variable is marginalized.

pub mod axioms;
pub mod cofactor;
pub mod ctx;
pub mod gencofactor;
pub mod lift;
pub mod numeric;
pub mod persist;
pub mod relkey;
pub mod relvalue;
pub mod ring;
pub mod symmatrix;

pub use cofactor::Cofactor;
pub use ctx::RingCtx;
pub use gencofactor::GenCofactor;
pub use lift::LiftFn;
pub use numeric::PairRing;
pub use persist::PersistRing;
pub use relkey::RelKey;
pub use relvalue::{DecodedRelEntry, RelValue};
pub use ring::{ApproxEq, Ring};
pub use symmatrix::SymMatrix;
