//! The synthetic application suite — one entry per benchmark the paper
//! evaluates (Figure 1's 27 CUDA/Rodinia/Mars/Lonestar applications plus
//! the TRA/nw/KM applications that appear in the Figure 7–13 evaluation
//! set).
//!
//! Each application pairs a [`KernelTemplate`] (its computational
//! signature) with a [`DataProfile`] (its compressibility signature) and the
//! static resources (registers/thread, block size) that drive the Figure 2
//! occupancy analysis. The pairings are chosen so the *shape* of the
//! paper's per-application results holds: which apps are memory-bound,
//! which are compressible, and which algorithm compresses each best
//! (Fig. 11).

use crate::data::DataProfile;
use crate::kernels::{params, KernelTemplate};
use caba_sim::Gpu;
use caba_stats::Rng64;

/// Benchmark suite of origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// NVIDIA CUDA SDK.
    Cuda,
    /// Rodinia.
    Rodinia,
    /// Mars (MapReduce on GPUs).
    Mars,
    /// Lonestar GPU.
    Lonestar,
}

/// Primary bottleneck classification (Figure 1's grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppClass {
    /// Bottlenecked by off-chip bandwidth / memory system.
    MemoryBound,
    /// Bottlenecked by the compute pipelines.
    ComputeBound,
}

/// One synthetic application.
#[derive(Debug, Clone, Copy)]
pub struct AppSpec {
    /// Application name as it appears in the paper's figures.
    pub name: &'static str,
    /// Suite of origin.
    pub suite: Suite,
    /// Memory- or compute-bound (Figure 1 grouping).
    pub class: AppClass,
    /// Computational skeleton.
    pub template: KernelTemplate,
    /// Input-data compressibility profile.
    pub data: DataProfile,
    /// Registers per thread (drives Figure 2).
    pub regs_per_thread: u32,
    /// Threads per block.
    pub block_dim: u32,
    /// Elements in the working set (at scale 1.0); the grid is derived so
    /// the launch covers every element exactly once.
    pub elements: u32,
    /// Appears in the Figure 7–13 evaluation set (bandwidth-sensitive with
    /// ≥10% compressible traffic, §5).
    pub in_eval_set: bool,
}

/// Input array base address.
pub const IN_BASE: u64 = 0x0010_0000;
/// Output array base address.
pub const OUT_BASE: u64 = 0x0800_0000;
/// Index (auxiliary) array base address.
pub const AUX_BASE: u64 = 0x0400_0000;

impl AppSpec {
    /// Builds the kernel, scaled by `scale` (working set and grid).
    pub fn kernel(&self, scale: f64) -> caba_sim::Kernel {
        let elements = self.scaled_elements(scale);
        self.template
            .build(self.name, elements, self.block_dim)
            .with_params(vec![IN_BASE, OUT_BASE, AUX_BASE, elements as u64])
            .with_regs_per_thread(self.regs_per_thread.max(8))
    }

    /// Working-set elements at `scale`.
    pub fn scaled_elements(&self, scale: f64) -> u32 {
        ((self.elements as f64 * scale).round() as u32).max(self.block_dim * 2)
    }

    /// Loads this application's input image (and index array, if used) into
    /// `gpu` memory. Deterministic per application name.
    pub fn load_inputs(&self, gpu: &mut Gpu, scale: f64) {
        let elements = self.scaled_elements(scale);
        let seed = self.name.bytes().fold(0xFEED_F00Du64, |h, b| {
            h.wrapping_mul(31).wrapping_add(b as u64)
        });
        let words = elements as usize * self.template.element_bytes() as usize / 4;
        let bytes = self.data.generate_bytes(words, seed);
        gpu.load_image(IN_BASE, &bytes);
        // Index array for gather-style kernels: a permutation-ish random
        // index stream with some locality.
        if matches!(self.template, KernelTemplate::Gather { .. }) {
            let mut rng = Rng64::new(seed ^ 0x1D);
            let mut idx = Vec::with_capacity(elements as usize * 4);
            for i in 0..elements {
                let j = if rng.chance(0.5) {
                    // local neighbourhood
                    (i + rng.range_u64(64) as u32) % elements
                } else {
                    rng.range_u64(elements as u64) as u32
                };
                idx.extend_from_slice(&j.to_le_bytes());
            }
            gpu.load_image(AUX_BASE, &idx);
        }
        // Pointer-chase links: random cycle.
        if matches!(self.template, KernelTemplate::PointerChase { .. }) {
            let mut rng = Rng64::new(seed ^ 0xC4A1);
            let mut links = Vec::with_capacity(elements as usize * 4);
            for _ in 0..elements {
                links.extend_from_slice(&(rng.range_u64(elements as u64) as u32).to_le_bytes());
            }
            gpu.load_image(IN_BASE, &links);
        }
        let _ = params::N;
    }

    /// Verifies the kernel's output against a CPU reference computation.
    /// Supported for the templates whose outputs are deterministic functions
    /// of the input image (streaming, gather, stencil, pointer chase);
    /// returns `None` for templates without a simple reference (tile/compute
    /// kernels whose outputs the integration tests check differently).
    ///
    /// # Panics
    ///
    /// Panics (with the first mismatching element) when the GPU output
    /// disagrees with the reference.
    pub fn verify_output(&self, gpu: &Gpu, scale: f64) -> Option<u32> {
        use crate::kernels::KernelTemplate as T;
        let elements = self.scaled_elements(scale);
        let mem = gpu.mem();
        let checked = match self.template {
            T::Streaming {
                loads,
                alu_per_load,
            } => {
                let threads = self.template.threads(elements);
                for gid in 0..threads.min(2048) {
                    let mut acc: u64 = 0;
                    let mut addr = IN_BASE + gid as u64 * 8;
                    for r in 0..loads.max(1) {
                        let v = mem.read_u64(addr);
                        acc ^= v;
                        acc = acc.wrapping_add(0x9E37 * alu_per_load as u64);
                        if r + 1 < loads {
                            addr += threads as u64 * 8;
                        }
                    }
                    acc &= 0x7F;
                    let got = mem.read_u32(OUT_BASE + gid as u64 * 4);
                    assert_eq!(got as u64, acc, "{}: thread {gid}", self.name);
                }
                threads.min(2048)
            }
            T::Gather { alu_per_load } => {
                let threads = elements;
                for gid in 0..threads.min(2048) {
                    let i = gid % elements;
                    let idx = mem.read_u32(AUX_BASE + i as u64 * 4) % elements;
                    let v = mem
                        .read_u32(IN_BASE + idx as u64 * 4)
                        .wrapping_add(alu_per_load);
                    let got = mem.read_u32(OUT_BASE + i as u64 * 4);
                    assert_eq!(got, v, "{}: thread {gid}", self.name);
                }
                threads.min(2048)
            }
            T::Stencil => {
                for gid in 0..elements.min(2048) {
                    let e = 1 + gid % (elements.saturating_sub(2).max(1));
                    let l = mem.read_u64(IN_BASE + (e as u64 - 1) * 8);
                    let c = mem.read_u64(IN_BASE + e as u64 * 8);
                    let r = mem.read_u64(IN_BASE + (e as u64 + 1) * 8);
                    let want = l.wrapping_add(c).wrapping_add(r) / 3;
                    let got = mem.read_u64(OUT_BASE + e as u64 * 8);
                    assert_eq!(got, want, "{}: element {e}", self.name);
                }
                elements.min(2048)
            }
            T::PointerChase { hops } => {
                let threads = self.template.threads(elements);
                for gid in 0..threads.min(1024) {
                    let mut idx = gid % elements;
                    for _ in 0..hops.max(1) {
                        idx = mem.read_u32(IN_BASE + idx as u64 * 4) % elements;
                    }
                    let got = mem.read_u32(OUT_BASE + (gid % elements) as u64 * 4);
                    assert_eq!(got, idx, "{}: thread {gid}", self.name);
                }
                threads.min(1024)
            }
            _ => return None,
        };
        Some(checked)
    }

    /// Cache lines of this app's input image (the Fig. 11 compression-ratio
    /// harness input).
    pub fn input_lines(&self, scale: f64) -> Vec<Vec<u8>> {
        let elements = self.scaled_elements(scale);
        let seed = self.name.bytes().fold(0xFEED_F00Du64, |h, b| {
            h.wrapping_mul(31).wrapping_add(b as u64)
        });
        let words = elements as usize * self.template.element_bytes() as usize / 4;
        self.data.generate_lines(words, seed)
    }
}

/// The registry: all 27 Figure 1 applications plus the evaluation-set
/// extras, in figure order.
const APPS: &[AppSpec] = &[
    // ---- Memory-bound (Figure 1 left group) -------------------------------
    AppSpec {
        name: "BFS",
        suite: Suite::Cuda,
        class: AppClass::MemoryBound,
        template: KernelTemplate::Gather { alu_per_load: 1 },
        data: DataProfile::SparseSmall {
            zero_prob: 0.55,
            max_value: 4096,
        },
        regs_per_thread: 12,
        block_dim: 256,
        elements: 96 * 1024,
        in_eval_set: true,
    },
    AppSpec {
        name: "CONS",
        suite: Suite::Cuda,
        class: AppClass::MemoryBound,
        template: KernelTemplate::Streaming {
            loads: 3,
            alu_per_load: 2,
        },
        data: DataProfile::FloatLike,
        regs_per_thread: 16,
        block_dim: 128,
        elements: 192 * 1024,
        in_eval_set: true,
    },
    AppSpec {
        name: "JPEG",
        suite: Suite::Cuda,
        class: AppClass::MemoryBound,
        template: KernelTemplate::Streaming {
            loads: 2,
            alu_per_load: 4,
        },
        data: DataProfile::SparseSmall {
            zero_prob: 0.65,
            max_value: 128,
        },
        regs_per_thread: 20,
        block_dim: 256,
        elements: 160 * 1024,
        in_eval_set: true,
    },
    AppSpec {
        name: "LPS",
        suite: Suite::Cuda,
        class: AppClass::MemoryBound,
        template: KernelTemplate::Stencil,
        data: DataProfile::SparseSmall {
            zero_prob: 0.5,
            max_value: 64,
        },
        regs_per_thread: 18,
        block_dim: 128,
        elements: 128 * 1024,
        in_eval_set: true,
    },
    AppSpec {
        name: "MUM",
        suite: Suite::Cuda,
        class: AppClass::MemoryBound,
        template: KernelTemplate::PointerChase { hops: 3 },
        data: DataProfile::SparseSmall {
            zero_prob: 0.3,
            max_value: 1 << 16,
        },
        regs_per_thread: 14,
        block_dim: 192,
        elements: 96 * 1024,
        in_eval_set: true,
    },
    AppSpec {
        name: "RAY",
        suite: Suite::Cuda,
        class: AppClass::MemoryBound,
        template: KernelTemplate::Streaming {
            loads: 3,
            alu_per_load: 2,
        },
        data: DataProfile::FloatLike,
        regs_per_thread: 24,
        block_dim: 128,
        elements: 160 * 1024,
        in_eval_set: true,
    },
    AppSpec {
        name: "SCP",
        suite: Suite::Cuda,
        class: AppClass::MemoryBound,
        template: KernelTemplate::Streaming {
            loads: 3,
            alu_per_load: 1,
        },
        data: DataProfile::Random,
        regs_per_thread: 10,
        block_dim: 256,
        elements: 192 * 1024,
        in_eval_set: false, // incompressible (§5: no gain, no loss)
    },
    AppSpec {
        name: "MM",
        suite: Suite::Mars,
        class: AppClass::MemoryBound,
        template: KernelTemplate::Streaming {
            loads: 4,
            alu_per_load: 1,
        },
        data: DataProfile::LowDynamicRange {
            base: 0x3F00_0000,
            range: 80,
        },
        regs_per_thread: 22,
        block_dim: 128,
        elements: 160 * 1024,
        in_eval_set: true,
    },
    AppSpec {
        name: "PVC",
        suite: Suite::Mars,
        class: AppClass::MemoryBound,
        template: KernelTemplate::Gather { alu_per_load: 2 },
        data: DataProfile::LowDynamicRange {
            base: 0x8001_D000,
            range: 100,
        },
        regs_per_thread: 16,
        block_dim: 256,
        elements: 96 * 1024,
        in_eval_set: true,
    },
    AppSpec {
        name: "PVR",
        suite: Suite::Mars,
        class: AppClass::MemoryBound,
        template: KernelTemplate::Gather { alu_per_load: 1 },
        data: DataProfile::LowDynamicRange {
            base: 0x1000_0000,
            range: 96,
        },
        regs_per_thread: 16,
        block_dim: 256,
        elements: 96 * 1024,
        in_eval_set: true,
    },
    AppSpec {
        name: "SS",
        suite: Suite::Mars,
        class: AppClass::MemoryBound,
        template: KernelTemplate::Streaming {
            loads: 2,
            alu_per_load: 2,
        },
        data: DataProfile::PointerPool { pool: 8 },
        regs_per_thread: 14,
        block_dim: 256,
        elements: 176 * 1024,
        in_eval_set: true,
    },
    AppSpec {
        name: "sc",
        suite: Suite::Rodinia,
        class: AppClass::MemoryBound,
        template: KernelTemplate::Streaming {
            loads: 2,
            alu_per_load: 3,
        },
        data: DataProfile::Random,
        regs_per_thread: 18,
        block_dim: 256,
        elements: 160 * 1024,
        in_eval_set: false, // incompressible
    },
    AppSpec {
        name: "bfs",
        suite: Suite::Lonestar,
        class: AppClass::MemoryBound,
        template: KernelTemplate::Gather { alu_per_load: 1 },
        data: DataProfile::SparseSmall {
            zero_prob: 0.6,
            max_value: 1 << 14,
        },
        regs_per_thread: 12,
        block_dim: 256,
        elements: 96 * 1024,
        in_eval_set: true,
    },
    AppSpec {
        name: "bh",
        suite: Suite::Lonestar,
        class: AppClass::MemoryBound,
        template: KernelTemplate::PointerChase { hops: 3 },
        data: DataProfile::PointerPool { pool: 12 },
        regs_per_thread: 22,
        block_dim: 192,
        elements: 96 * 1024,
        in_eval_set: true,
    },
    AppSpec {
        name: "mst",
        suite: Suite::Lonestar,
        class: AppClass::MemoryBound,
        template: KernelTemplate::Gather { alu_per_load: 2 },
        data: DataProfile::SparseSmall {
            zero_prob: 0.55,
            max_value: 2048,
        },
        regs_per_thread: 16,
        block_dim: 256,
        elements: 80 * 1024,
        in_eval_set: true,
    },
    AppSpec {
        name: "sp",
        suite: Suite::Lonestar,
        class: AppClass::MemoryBound,
        template: KernelTemplate::Streaming {
            loads: 2,
            alu_per_load: 1,
        },
        data: DataProfile::SparseSmall {
            zero_prob: 0.45,
            max_value: 512,
        },
        regs_per_thread: 12,
        block_dim: 256,
        elements: 192 * 1024,
        in_eval_set: true,
    },
    AppSpec {
        name: "sssp",
        suite: Suite::Lonestar,
        class: AppClass::MemoryBound,
        template: KernelTemplate::Gather { alu_per_load: 2 },
        data: DataProfile::LowDynamicRange {
            base: 0x10_0000,
            range: 90,
        },
        regs_per_thread: 14,
        block_dim: 256,
        elements: 96 * 1024,
        in_eval_set: true,
    },
    // ---- Evaluation-set extras (Figures 7–13) -----------------------------
    AppSpec {
        name: "SLA",
        suite: Suite::Cuda,
        class: AppClass::ComputeBound,
        template: KernelTemplate::Streaming {
            loads: 2,
            alu_per_load: 4,
        },
        data: DataProfile::LowDynamicRange {
            base: 0x4000_0000,
            range: 100,
        },
        regs_per_thread: 18,
        block_dim: 128,
        elements: 128 * 1024,
        in_eval_set: true,
    },
    AppSpec {
        name: "TRA",
        suite: Suite::Cuda,
        class: AppClass::MemoryBound,
        template: KernelTemplate::Streaming {
            loads: 2,
            alu_per_load: 1,
        },
        data: DataProfile::Mixed,
        regs_per_thread: 12,
        block_dim: 128,
        elements: 176 * 1024,
        in_eval_set: true,
    },
    AppSpec {
        name: "hs",
        suite: Suite::Rodinia,
        class: AppClass::ComputeBound,
        template: KernelTemplate::Stencil,
        data: DataProfile::FloatLike,
        regs_per_thread: 20,
        block_dim: 256,
        elements: 128 * 1024,
        in_eval_set: true,
    },
    AppSpec {
        name: "nw",
        suite: Suite::Rodinia,
        class: AppClass::MemoryBound,
        template: KernelTemplate::Stencil,
        data: DataProfile::SparseSmall {
            zero_prob: 0.7,
            max_value: 32,
        },
        regs_per_thread: 16,
        block_dim: 128,
        elements: 128 * 1024,
        in_eval_set: true,
    },
    AppSpec {
        name: "KM",
        suite: Suite::Mars,
        class: AppClass::MemoryBound,
        template: KernelTemplate::Streaming {
            loads: 3,
            alu_per_load: 3,
        },
        data: DataProfile::Mixed,
        regs_per_thread: 18,
        block_dim: 256,
        elements: 176 * 1024,
        in_eval_set: true,
    },
    // ---- Compute-bound (Figure 1 right group) -----------------------------
    AppSpec {
        name: "bp",
        suite: Suite::Rodinia,
        class: AppClass::ComputeBound,
        template: KernelTemplate::GemmTile { k: 24 },
        data: DataProfile::FloatLike,
        regs_per_thread: 20,
        block_dim: 256,
        elements: 16 * 1024,
        in_eval_set: false,
    },
    AppSpec {
        name: "dmr",
        suite: Suite::Lonestar,
        class: AppClass::ComputeBound,
        template: KernelTemplate::SfuHeavy { iters: 12 },
        data: DataProfile::FloatLike,
        regs_per_thread: 28,
        block_dim: 128,
        elements: 12 * 1024,
        in_eval_set: false,
    },
    AppSpec {
        name: "NQU",
        suite: Suite::Cuda,
        class: AppClass::ComputeBound,
        template: KernelTemplate::ComputeHeavy {
            alu_iters: 32,
            sfu_every: 0,
        },
        data: DataProfile::SparseSmall {
            zero_prob: 0.4,
            max_value: 64,
        },
        regs_per_thread: 16,
        block_dim: 96,
        elements: 12 * 1024,
        in_eval_set: false,
    },
    AppSpec {
        name: "pt",
        suite: Suite::Lonestar,
        class: AppClass::ComputeBound,
        template: KernelTemplate::ComputeHeavy {
            alu_iters: 20,
            sfu_every: 4,
        },
        data: DataProfile::FloatLike,
        regs_per_thread: 24,
        block_dim: 192,
        elements: 16 * 1024,
        in_eval_set: false,
    },
    AppSpec {
        name: "lc",
        suite: Suite::Rodinia,
        class: AppClass::ComputeBound,
        template: KernelTemplate::ComputeHeavy {
            alu_iters: 28,
            sfu_every: 0,
        },
        data: DataProfile::LowDynamicRange {
            base: 0x100,
            range: 64,
        },
        regs_per_thread: 18,
        block_dim: 128,
        elements: 12 * 1024,
        in_eval_set: false,
    },
    AppSpec {
        name: "STO",
        suite: Suite::Cuda,
        class: AppClass::ComputeBound,
        template: KernelTemplate::ComputeHeavy {
            alu_iters: 36,
            sfu_every: 0,
        },
        data: DataProfile::PointerPool { pool: 16 },
        regs_per_thread: 22,
        block_dim: 128,
        elements: 12 * 1024,
        in_eval_set: false,
    },
    AppSpec {
        name: "NN",
        suite: Suite::Cuda,
        class: AppClass::ComputeBound,
        template: KernelTemplate::ComputeHeavy {
            alu_iters: 24,
            sfu_every: 6,
        },
        data: DataProfile::FloatLike,
        regs_per_thread: 26,
        block_dim: 192,
        elements: 16 * 1024,
        in_eval_set: false,
    },
    AppSpec {
        name: "mc",
        suite: Suite::Rodinia,
        class: AppClass::ComputeBound,
        template: KernelTemplate::SfuHeavy { iters: 10 },
        data: DataProfile::Random,
        regs_per_thread: 20,
        block_dim: 128,
        elements: 12 * 1024,
        in_eval_set: false,
    },
];

/// All 27 Figure 1 applications plus the evaluation-set extras.
pub fn all_apps() -> Vec<AppSpec> {
    APPS.to_vec()
}

/// The applications evaluated in Figures 7–13 (bandwidth-sensitive with
/// compressible traffic).
pub fn eval_apps() -> Vec<AppSpec> {
    APPS.iter().filter(|a| a.in_eval_set).copied().collect()
}

/// Looks an application up by name.
pub fn app(name: &str) -> Option<AppSpec> {
    APPS.iter().find(|a| a.name == name).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_expected_composition() {
        let apps = all_apps();
        assert!(apps.len() >= 27, "{} apps", apps.len());
        let mem = apps
            .iter()
            .filter(|a| a.class == AppClass::MemoryBound)
            .count();
        let comp = apps
            .iter()
            .filter(|a| a.class == AppClass::ComputeBound)
            .count();
        // Figure 1: "a majority of the applications in our workload pool
        // (17 out of 27 studied) are Memory Bound".
        assert!(mem > comp, "memory {mem} vs compute {comp}");
        // Names unique.
        let mut names: Vec<_> = apps.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), apps.len());
    }

    #[test]
    fn eval_set_is_nontrivial() {
        let evals = eval_apps();
        assert!(evals.len() >= 15, "{}", evals.len());
        // SCP and sc (incompressible) excluded per §5.
        assert!(evals.iter().all(|a| a.name != "SCP" && a.name != "sc"));
    }

    #[test]
    fn lookup_by_name() {
        assert!(app("MM").is_some());
        assert!(app("nope").is_none());
        assert_eq!(app("PVC").unwrap().suite, Suite::Mars);
    }

    #[test]
    fn kernels_build_at_all_scales() {
        for a in all_apps() {
            for scale in [0.1, 1.0] {
                let k = a.kernel(scale);
                assert!(k.program().len() > 3, "{} @ {scale}", a.name);
                assert!(k.regs_per_thread() >= 8);
            }
        }
    }
}
