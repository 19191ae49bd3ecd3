//! The CABA assist-warp framework, re-exported from [`caba_sim::caba`],
//! where the Assist Warp Controller and Store live beside the SM that runs
//! them. The package stays so that existing `caba_core::` paths keep
//! resolving.

pub use caba_sim::caba::*;
