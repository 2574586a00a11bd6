//! Errors for the typechecking pipeline.

use std::fmt;
use xmltc_automata::LazyError;
use xmltc_core::MachineError;
use xmltc_mso::CompileError;
use xmltc_trees::TreeError;

/// Errors raised by the typechecker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypecheckError {
    /// The chosen route requires a 1-pebble machine.
    NeedsOnePebble {
        /// Actual pebble count.
        k: u8,
    },
    /// A construction exceeded its state/class budget.
    TooManyStates {
        /// Actual state count.
        n: u32,
    },
    /// MSO compilation exceeded its resource budget (the Theorem 4.8
    /// non-elementary blow-up).
    Mso(CompileError),
    /// Machine-level error (alphabet mismatch, ill-typed machine, …).
    Machine(MachineError),
    /// Tree-level error.
    Tree(TreeError),
}

impl fmt::Display for TypecheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypecheckError::NeedsOnePebble { k } => {
                write!(f, "the behaviour route requires k = 1, machine has k = {k}")
            }
            TypecheckError::TooManyStates { n } => {
                write!(f, "state/class budget exceeded: {n} states")
            }
            TypecheckError::Mso(e) => write!(f, "MSO route failed: {e}"),
            TypecheckError::Machine(e) => write!(f, "{e}"),
            TypecheckError::Tree(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TypecheckError {}

impl From<CompileError> for TypecheckError {
    fn from(e: CompileError) -> Self {
        TypecheckError::Mso(e)
    }
}

impl From<MachineError> for TypecheckError {
    fn from(e: MachineError) -> Self {
        TypecheckError::Machine(e)
    }
}

impl From<TreeError> for TypecheckError {
    fn from(e: TreeError) -> Self {
        TypecheckError::Tree(e)
    }
}

/// Maps the on-the-fly search's failures onto the typechecker's error vocabulary.
impl From<LazyError> for TypecheckError {
    fn from(e: LazyError) -> Self {
        match e {
            LazyError::AlphabetMismatch => TypecheckError::Tree(TreeError::AlphabetMismatch),
            LazyError::ConfigLimit { n } => TypecheckError::TooManyStates { n },
        }
    }
}
