//! Shared helpers for the DAMPI paper-figure printers.
//!
//! Each bench target in `benches/` is a plain `fn main()` that regenerates
//! one table or figure of the paper as replay counts and virtual time;
//! this small library holds the table-printing utilities they share.
//! Nothing here reads a wall clock — `benchmark/` is the one place in the
//! tree that times anything.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod table;
pub mod table2;

pub use table::Table;
