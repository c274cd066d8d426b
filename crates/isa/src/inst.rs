//! Dynamic instructions and opcodes.

use crate::{Addr, Reg, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Memory access width for loads and stores, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[derive(Default)]
pub enum MemWidth {
    /// 1-byte access.
    B1,
    /// 2-byte access.
    B2,
    /// 4-byte access.
    B4,
    /// 8-byte access.
    #[default]
    B8,
}

impl MemWidth {
    /// Width in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::B1 => 1,
            MemWidth::B2 => 2,
            MemWidth::B4 => 4,
            MemWidth::B8 => 8,
        }
    }
}


/// Opcodes of SimISA.
///
/// The set is intentionally small: what matters to the evaluated mechanisms is
/// the operation *class* (functional-unit latency and port usage) and the
/// dependence/memory behaviour, not ISA breadth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// Integer add (also used for address arithmetic): `dst = src1 + src2 + imm`.
    Add,
    /// Integer subtract: `dst = src1 - src2 - imm`.
    Sub,
    /// Bitwise and: `dst = src1 & (src2 ^ imm)`.
    And,
    /// Bitwise or: `dst = src1 | src2 | imm`.
    Or,
    /// Bitwise xor: `dst = src1 ^ src2 ^ imm`.
    Xor,
    /// Logical shift left by `imm & 63`: `dst = src1 << sh`.
    Shl,
    /// Logical shift right by `imm & 63`: `dst = src1 >> sh`.
    Shr,
    /// Compare less-than (unsigned): `dst = (src1 < src2) as u64`.
    CmpLt,
    /// Integer multiply: `dst = src1 * src2` (wrapping).
    Mul,
    /// Floating-point add (modelled on integer bits): `dst = src1 + src2`.
    FpAdd,
    /// Floating-point multiply (modelled on integer bits): `dst = src1 * src2`.
    FpMul,
    /// Load of `MemWidth` bytes: `dst = mem[addr]`.
    Load,
    /// Store of `MemWidth` bytes: `mem[addr] = src1`.
    Store,
    /// Conditional branch; direction recorded in [`DynInst::branch`].
    Branch,
    /// Unconditional jump (always taken; still consumes the branch port).
    Jump,
    /// No-operation (consumes an integer port slot; used to pad schedules).
    Nop,
}

/// Coarse operation classes used for latency and issue-port modelling.
///
/// Port model (paper Table 1): 2-way superscalar with 2 integer ports and a
/// single shared fp/load/store/branch port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Integer multiply (4 cycles, paper Table 1).
    IntMul,
    /// Floating-point add (2 cycles, paper Table 1).
    FpAdd,
    /// Floating-point multiply (4 cycles, paper Table 1).
    FpMul,
    /// Load (3-cycle data-cache pipeline on a hit, paper Table 1).
    Load,
    /// Store (address/data capture; completion handled by the store buffer).
    Store,
    /// Branch or jump.
    Branch,
}

impl Op {
    /// The operation class of this opcode.
    pub fn class(self) -> OpClass {
        match self {
            Op::Add
            | Op::Sub
            | Op::And
            | Op::Or
            | Op::Xor
            | Op::Shl
            | Op::Shr
            | Op::CmpLt
            | Op::Nop => OpClass::IntAlu,
            Op::Mul => OpClass::IntMul,
            Op::FpAdd => OpClass::FpAdd,
            Op::FpMul => OpClass::FpMul,
            Op::Load => OpClass::Load,
            Op::Store => OpClass::Store,
            Op::Branch | Op::Jump => OpClass::Branch,
        }
    }

    /// True for loads.
    pub fn is_load(self) -> bool {
        self == Op::Load
    }

    /// True for stores.
    pub fn is_store(self) -> bool {
        self == Op::Store
    }

    /// True for memory operations (loads and stores).
    pub fn is_mem(self) -> bool {
        self.is_load() || self.is_store()
    }

    /// True for control-transfer instructions.
    pub fn is_branch(self) -> bool {
        matches!(self, Op::Branch | Op::Jump)
    }
}

impl OpClass {
    /// Execution latency in cycles for this class, per paper Table 1.
    ///
    /// For loads this is the data-cache *hit* pipeline latency (3 cycles); a
    /// miss extends it via the memory hierarchy.  Stores are considered
    /// complete (from the pipeline's perspective) once address and data are
    /// captured by the store buffer, hence latency 1.
    pub fn latency(self) -> u64 {
        match self {
            OpClass::IntAlu => 1,
            OpClass::IntMul => 4,
            OpClass::FpAdd => 2,
            OpClass::FpMul => 4,
            OpClass::Load => 3,
            OpClass::Store => 1,
            OpClass::Branch => 1,
        }
    }

    /// Whether this class issues on an integer port (true) or on the shared
    /// fp/load/store/branch port (false).
    pub fn uses_int_port(self) -> bool {
        matches!(self, OpClass::IntAlu | OpClass::IntMul)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Op::Add => "add",
            Op::Sub => "sub",
            Op::And => "and",
            Op::Or => "or",
            Op::Xor => "xor",
            Op::Shl => "shl",
            Op::Shr => "shr",
            Op::CmpLt => "cmplt",
            Op::Mul => "mul",
            Op::FpAdd => "fadd",
            Op::FpMul => "fmul",
            Op::Load => "ld",
            Op::Store => "st",
            Op::Branch => "br",
            Op::Jump => "jmp",
            Op::Nop => "nop",
        };
        write!(f, "{s}")
    }
}

/// Outcome of a control-transfer instruction, recorded in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BranchInfo {
    /// Whether the branch is taken in the (correct-path) trace.
    pub taken: bool,
    /// Branch target address (used by the BTB model).
    pub target: Addr,
    /// A hint in `0.0..=1.0` describing how predictable this branch's
    /// direction stream is; the synthetic workload generator sets this and the
    /// predictor model consumes it when the full history-based predictor is
    /// not warmed up.  `1.0` means perfectly biased.
    pub predictability: f32,
}

/// One dynamic instruction from the correct-path instruction stream.
///
/// A [`DynInst`] is a *trace record*: effective addresses, branch outcomes and
/// immediate values are pre-resolved (trace-driven simulation).  The timing
/// models still decide *when* each field may legally be observed (e.g. a
/// poisoned address cannot be used to chain a store into the store buffer).
///
/// A record carries no sequence number: an instruction's dynamic position
/// ([`crate::InstSeq`]) is where it sits in its trace or block, which is how
/// every model indexes it and how [`crate::inst_mix`] is told it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DynInst {
    /// Program counter of this instruction.
    pub pc: Addr,
    /// Opcode.
    pub op: Op,
    /// Destination register, if any.
    pub dst: Option<Reg>,
    /// First source register, if any.
    pub src1: Option<Reg>,
    /// Second source register, if any.  For stores this is the *data* source
    /// when `src1` carries the address base, mirroring a typical RISC `st
    /// data, [base+imm]` encoding — see [`DynInst::store_data_reg`].
    pub src2: Option<Reg>,
    /// Immediate operand.
    pub imm: Value,
    /// Effective address for loads/stores.
    pub addr: Option<Addr>,
    /// Access width for loads/stores.
    pub width: MemWidth,
    /// Branch outcome for control transfers.
    pub branch: Option<BranchInfo>,
}

// Trace arenas hold millions of records, so record width is host memory
// bandwidth: a new field must earn its bytes.
const _: () = assert!(size_of::<DynInst>() == 56);

impl DynInst {
    /// Creates a three-register ALU instruction `op dst, src1, src2`.
    pub fn alu(op: Op, dst: Reg, src1: Reg, src2: Reg) -> Self {
        debug_assert!(!op.is_mem() && !op.is_branch());
        DynInst {
            pc: 0,
            op,
            dst: Some(dst),
            src1: Some(src1),
            src2: Some(src2),
            imm: 0,
            addr: None,
            width: MemWidth::B8,
            branch: None,
        }
    }

    /// Creates an ALU instruction with an immediate operand `op dst, src1, #imm`.
    pub fn alu_imm(op: Op, dst: Reg, src1: Reg, imm: Value) -> Self {
        debug_assert!(!op.is_mem() && !op.is_branch());
        DynInst {
            pc: 0,
            op,
            dst: Some(dst),
            src1: Some(src1),
            src2: None,
            imm,
            addr: None,
            width: MemWidth::B8,
            branch: None,
        }
    }

    /// Creates a load `ld dst, [base]` with a pre-resolved effective address.
    pub fn load(dst: Reg, base: Reg, addr: Addr) -> Self {
        DynInst {
            pc: 0,
            op: Op::Load,
            dst: Some(dst),
            src1: Some(base),
            src2: None,
            imm: 0,
            addr: Some(addr),
            width: MemWidth::B8,
            branch: None,
        }
    }

    /// Creates a store `st data, [base]` with a pre-resolved effective address.
    pub fn store(data: Reg, base: Reg, addr: Addr) -> Self {
        DynInst {
            pc: 0,
            op: Op::Store,
            dst: None,
            src1: Some(base),
            src2: Some(data),
            imm: 0,
            addr: Some(addr),
            width: MemWidth::B8,
            branch: None,
        }
    }

    /// Creates a conditional branch with the given resolved outcome.
    pub fn branch(cond: Reg, taken: bool, target: Addr, predictability: f32) -> Self {
        DynInst {
            pc: 0,
            op: Op::Branch,
            dst: None,
            src1: Some(cond),
            src2: None,
            imm: 0,
            addr: None,
            width: MemWidth::B8,
            branch: Some(BranchInfo {
                taken,
                target,
                predictability,
            }),
        }
    }

    /// Creates a no-operation.
    pub fn nop() -> Self {
        DynInst {
            pc: 0,
            op: Op::Nop,
            dst: None,
            src1: None,
            src2: None,
            imm: 0,
            addr: None,
            width: MemWidth::B8,
            branch: None,
        }
    }

    /// The operation class (latency / port) of this instruction.
    pub fn class(&self) -> OpClass {
        self.op.class()
    }

    /// Execution latency of this instruction assuming cache hits.
    pub fn latency(&self) -> u64 {
        self.class().latency()
    }

    /// True for loads.
    pub fn is_load(&self) -> bool {
        self.op.is_load()
    }

    /// True for stores.
    pub fn is_store(&self) -> bool {
        self.op.is_store()
    }

    /// True for memory operations.
    pub fn is_mem(&self) -> bool {
        self.op.is_mem()
    }

    /// True for control transfers.
    pub fn is_branch(&self) -> bool {
        self.op.is_branch()
    }

    /// The register that supplies a store's *data* operand (`src2` by
    /// convention, falling back to `src1` for single-operand encodings).
    pub fn store_data_reg(&self) -> Option<Reg> {
        debug_assert!(self.is_store());
        self.src2.or(self.src1)
    }

    /// The register that supplies a memory operation's *address base*.
    pub fn addr_base_reg(&self) -> Option<Reg> {
        debug_assert!(self.is_mem());
        self.src1
    }

    /// Iterator over the source registers of this instruction.
    pub fn sources(&self) -> impl Iterator<Item = Reg> + '_ {
        self.src1.into_iter().chain(self.src2)
    }

    /// Sets the program counter (builder style).
    pub fn with_pc(mut self, pc: Addr) -> Self {
        self.pc = pc;
        self
    }
}

impl fmt::Display for DynInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.op)?;
        if let Some(d) = self.dst {
            write!(f, " {d}")?;
        }
        for s in self.sources() {
            write!(f, ", {s}")?;
        }
        if let Some(a) = self.addr {
            write!(f, ", [{a:#x}]")?;
        }
        if let Some(b) = self.branch {
            write!(f, " ({})", if b.taken { "T" } else { "NT" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classes_and_latencies_match_paper_table1() {
        assert_eq!(Op::Add.class().latency(), 1);
        assert_eq!(Op::Mul.class().latency(), 4);
        assert_eq!(Op::FpAdd.class().latency(), 2);
        assert_eq!(Op::FpMul.class().latency(), 4);
        assert_eq!(Op::Load.class().latency(), 3);
        assert_eq!(Op::Branch.class().latency(), 1);
    }

    #[test]
    fn port_assignment() {
        assert!(OpClass::IntAlu.uses_int_port());
        assert!(OpClass::IntMul.uses_int_port());
        assert!(!OpClass::FpAdd.uses_int_port());
        assert!(!OpClass::Load.uses_int_port());
        assert!(!OpClass::Store.uses_int_port());
        assert!(!OpClass::Branch.uses_int_port());
    }

    #[test]
    fn constructors_classify_correctly() {
        let ld = DynInst::load(Reg::int(1), Reg::int(2), 0x100);
        assert!(ld.is_load() && ld.is_mem() && !ld.is_store());
        let st = DynInst::store(Reg::int(3), Reg::int(2), 0x108);
        assert!(st.is_store() && st.is_mem());
        assert_eq!(st.store_data_reg(), Some(Reg::int(3)));
        assert_eq!(st.addr_base_reg(), Some(Reg::int(2)));
        let br = DynInst::branch(Reg::int(4), true, 0x40, 0.9);
        assert!(br.is_branch());
        assert!(br.branch.unwrap().taken);
    }

    #[test]
    fn sources_iterates_in_order() {
        let i = DynInst::alu(Op::Add, Reg::int(1), Reg::int(2), Reg::int(3));
        let s: Vec<Reg> = i.sources().collect();
        assert_eq!(s, vec![Reg::int(2), Reg::int(3)]);
        let n = DynInst::nop();
        assert_eq!(n.sources().count(), 0);
    }

    #[test]
    fn display_contains_opcode_and_regs() {
        let i = DynInst::alu(Op::Xor, Reg::int(1), Reg::int(2), Reg::int(3));
        assert_eq!(i.to_string(), "xor r1, r2, r3");
    }

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::B1.bytes(), 1);
        assert_eq!(MemWidth::B8.bytes(), 8);
        assert_eq!(MemWidth::default(), MemWidth::B8);
    }
}
