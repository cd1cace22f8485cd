//! The user-configurable kernel library of the C-RT (paper §IV-B).
//!
//! Every complex `xmkN` instruction resolves, through an O(1) table
//! lookup on `func5`, to an implementation of the [`Kernel`] trait. The
//! library ships the five kernels of Table I plus three extension
//! kernels (`xmk5`-`xmk7`) and accepts user kernels
//! before "compilation" (here: at construction time), which is the
//! software-defined ISA extensibility the paper advertises.

mod conv;
mod elementwise;
mod gemm;
mod pool;
mod relu;

pub use conv::{Conv2d, ConvLayer3ch};
pub use elementwise::{MatAdd, MatScale, Transpose};
pub use gemm::Gemm;
pub use pool::MaxPool;
pub use relu::LeakyRelu;

use crate::cache::AtFull;
use crate::runtime::ctx::KernelCtx;
use crate::runtime::map::MatView;
use arcane_isa::launch::LaunchDecodeError;
use arcane_isa::xmnmc::{kernel_id, MatReg};
use arcane_sim::Sew;
use arcane_vpu::VpuError;
use std::error::Error;
use std::fmt;

/// Fully resolved arguments of one kernel invocation.
#[derive(Debug, Clone, Copy)]
pub struct ResolvedArgs {
    /// Element width of the operation.
    pub width: Sew,
    /// First scalar parameter (kernel-specific meaning).
    pub alpha: i16,
    /// Second scalar parameter (kernel-specific meaning).
    pub beta: i16,
    /// Destination binding.
    pub md: MatView,
    /// First source binding (if the logical register was bound).
    pub ms1: Option<MatView>,
    /// Second source binding.
    pub ms2: Option<MatView>,
    /// Third source binding.
    pub ms3: Option<MatView>,
}

/// Error raised while decoding, validating or executing a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// `func5` does not name a registered kernel (host receives the
    /// CV-X-IF *kill*).
    UnknownKernel {
        /// The unknown `func5` value.
        id: u8,
    },
    /// A kernel operand names an unbound logical matrix register.
    UnboundMatrix {
        /// The offending register.
        reg: MatReg,
    },
    /// Operand shapes are inconsistent with the kernel contract.
    ShapeMismatch {
        /// Human-readable description of the violated constraint.
        what: &'static str,
    },
    /// A matrix row exceeds the vector length (column tiling is not
    /// implemented; the paper's evaluation stays within one line too).
    RowTooWide {
        /// Row width in elements.
        cols: usize,
        /// Maximum representable width for this element size.
        max: usize,
    },
    /// Operand widths disagree with the instruction width suffix.
    WidthMismatch,
    /// An operand or destination matrix, or an `xmb` descriptor batch,
    /// does not lie inside external memory (checked before any line or
    /// memory is touched and before anything is allocated).
    OperandOutOfRange {
        /// Base address of the offending matrix or batch.
        addr: u32,
        /// Bytes the matrix or batch spans from `addr`.
        bytes: u64,
    },
    /// The Address Table has no free slot for the kernel's operands.
    AddressTableFull {
        /// Configured Address Table capacity.
        capacity: usize,
    },
    /// An `xmb` launch-batch failed to decode (descriptor pipeline).
    Launch(LaunchDecodeError),
    /// The VPU rejected a vector instruction (runtime bug).
    Vpu(VpuError),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::UnknownKernel { id } => write!(f, "no kernel registered for func5={id}"),
            KernelError::UnboundMatrix { reg } => {
                write!(f, "matrix register {reg} has no xmr binding")
            }
            KernelError::ShapeMismatch { what } => write!(f, "operand shape mismatch: {what}"),
            KernelError::RowTooWide { cols, max } => {
                write!(
                    f,
                    "matrix row of {cols} elements exceeds the {max}-element vector"
                )
            }
            KernelError::WidthMismatch => {
                f.write_str("operand width differs from instruction suffix")
            }
            KernelError::OperandOutOfRange { addr, bytes } => write!(
                f,
                "{bytes} bytes at {addr:#010x} lie outside external memory"
            ),
            KernelError::AddressTableFull { capacity } => {
                write!(f, "address table full ({capacity} entries)")
            }
            KernelError::Launch(e) => write!(f, "launch-batch decode failed: {e}"),
            KernelError::Vpu(e) => write!(f, "vector unit fault: {e}"),
        }
    }
}

impl Error for KernelError {}

impl From<AtFull> for KernelError {
    fn from(e: AtFull) -> Self {
        KernelError::AddressTableFull {
            capacity: e.capacity,
        }
    }
}

impl From<VpuError> for KernelError {
    fn from(e: VpuError) -> Self {
        KernelError::Vpu(e)
    }
}

/// A complex matrix kernel: the micro-program behind one `xmkN`.
///
/// Implementations validate their operands in [`Kernel::validate`]
/// (the *preamble* of §IV-B1, run in the interrupt handler) and perform
/// the tiled allocate/compute/writeback sequence in [`Kernel::run`].
pub trait Kernel: fmt::Debug + Send {
    /// Kernel mnemonic (e.g. `"gemm"`).
    fn name(&self) -> &'static str;

    /// Validates operand shapes and returns the *source* views the
    /// kernel will read (registered in the Address Table for WAR
    /// protection). The destination is always `args.md`.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] when the operands violate the kernel's
    /// contract; the host then receives the CV-X-IF kill.
    fn validate(&self, args: &ResolvedArgs) -> Result<Vec<MatView>, KernelError>;

    /// Executes the kernel on the context's VPU, tile by tile.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] on internal faults (these abort the
    /// simulation; real hardware would raise an eCPU exception).
    fn run(&self, args: &ResolvedArgs, ctx: &mut KernelCtx<'_>) -> Result<(), KernelError>;
}

/// The O(1) `func5 → kernel` dispatch table.
pub struct KernelLib {
    slots: [Option<Box<dyn Kernel>>; 31],
}

impl fmt::Debug for KernelLib {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<(usize, &str)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|k| (i, k.name())))
            .collect();
        f.debug_struct("KernelLib")
            .field("kernels", &names)
            .finish()
    }
}

impl KernelLib {
    /// An empty library (no kernels registered).
    pub fn empty() -> Self {
        KernelLib {
            slots: std::array::from_fn(|_| None),
        }
    }

    /// The library shipped with the C-RT: the five kernels of Table I
    /// plus the `xmk5`-`xmk7` extensions (add, scale-shift, transpose).
    pub fn builtin() -> Self {
        let mut lib = KernelLib::empty();
        lib.register(kernel_id::GEMM, Box::new(Gemm));
        lib.register(kernel_id::LEAKY_RELU, Box::new(LeakyRelu));
        lib.register(kernel_id::MAXPOOL, Box::new(MaxPool));
        lib.register(kernel_id::CONV2D, Box::new(Conv2d));
        lib.register(kernel_id::CONV_LAYER_3CH, Box::new(ConvLayer3ch));
        lib.register(kernel_id::MAT_ADD, Box::new(MatAdd));
        lib.register(kernel_id::MAT_SCALE, Box::new(MatScale));
        lib.register(kernel_id::TRANSPOSE, Box::new(Transpose));
        lib
    }

    /// Registers (or replaces) the kernel behind `func5 = id`.
    ///
    /// # Panics
    ///
    /// Panics if `id > 30` (`31` encodes `xmr`).
    pub fn register(&mut self, id: u8, kernel: Box<dyn Kernel>) {
        assert!(id <= 30, "kernel ids are 0..=30");
        self.slots[id as usize] = Some(kernel);
    }

    /// Looks up the kernel behind `id`.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownKernel`] when the slot is empty.
    pub fn get(&self, id: u8) -> Result<&dyn Kernel, KernelError> {
        self.slots
            .get(id as usize)
            .and_then(|s| s.as_deref())
            .ok_or(KernelError::UnknownKernel { id })
    }

    /// Number of registered kernels.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// `true` when no kernels are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for KernelLib {
    fn default() -> Self {
        KernelLib::builtin()
    }
}

pub(crate) fn require(
    view: Option<MatView>,
    reg_name: &'static str,
) -> Result<MatView, KernelError> {
    view.ok_or(KernelError::ShapeMismatch { what: reg_name })
}

pub(crate) fn check_width(view: &MatView, width: Sew) -> Result<(), KernelError> {
    if view.sew == width {
        Ok(())
    } else {
        Err(KernelError::WidthMismatch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_library_has_table1_kernels() {
        let lib = KernelLib::builtin();
        assert_eq!(lib.len(), 8);
        assert_eq!(lib.get(kernel_id::GEMM).unwrap().name(), "gemm");
        assert_eq!(
            lib.get(kernel_id::CONV_LAYER_3CH).unwrap().name(),
            "conv_layer_3ch"
        );
        assert!(matches!(
            lib.get(9),
            Err(KernelError::UnknownKernel { id: 9 })
        ));
    }

    #[test]
    #[should_panic(expected = "kernel ids are 0..=30")]
    fn registering_reserved_id_panics() {
        KernelLib::empty().register(31, Box::new(Gemm));
    }
}
