//! Umbrella crate re-exporting the CABA stack.
pub use caba_compress as compress;
pub use caba_energy as energy;
pub use caba_isa as isa;
pub use caba_mem as mem;
pub use caba_sim as sim;
pub use caba_stats as stats;
pub use caba_store as store;
pub use caba_workloads as workloads;
