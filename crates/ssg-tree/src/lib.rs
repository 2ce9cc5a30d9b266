//! # ssg-tree
//!
//! Rooted ordered trees for the strongly-simplicial channel-assignment
//! library (paper §4): BFS-canonical numbering (levels contiguous, left to
//! right — the order in which the paper's tree coloring processes
//! t-simplicial vertices), the `Explore-Descendents` lists `D_i(x)` of
//! Figure 3, the `Up-Neighborhood` sets `F_uplevel(y)` of Figure 4, and the
//! derived optimal span `λ*_{T,t} = max_y |F_t(y)|`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod descendants;
pub mod neighborhood;
pub mod rooted;

pub use descendants::{explore_descendents, DescendantLists};
pub use neighborhood::{f_t_size, for_each_in_up_neighborhood, tree_lambda_star, up_neighborhood};
pub use rooted::{RootedTree, TreeError};
