//! The `icfp-trace/v2` per-block instruction codec: varint + delta encoding.
//!
//! Version 2 of the container keeps the v1 *file* geometry (magic, index
//! offset, index, trailing index digest — see [`crate::trace_file`]) and
//! changes only how a block's instructions are serialized.  The v1 encoding
//! spends ~45 bytes per instruction, most of it on what is either derivable
//! (each record's leading position, always the block's first position plus
//! the record's index) or strongly correlated with the previous record (`pc`
//! and effective addresses advance by small strides).  The v2 record is:
//!
//! ```text
//! flags   1 byte   bit0 dst, bit1 src1, bit2 src2, bit3 addr, bit4 branch,
//!                  bit5 branch.taken, bits6-7 MemWidth (B1/B2/B4/B8)
//! op      1 byte   opcode ordinal
//! dst     1 byte   present iff flags bit0 (flat register index)
//! src1    1 byte   present iff flags bit1
//! src2    1 byte   present iff flags bit2
//! pc      varint   zigzag(pc - previous record's pc; first record: pc - 0)
//! imm     varint   zigzag(imm as i64)
//! addr    varint   present iff flags bit3: zigzag delta from the previous
//!                  *memory* record's address (first memory record: addr - 0)
//! target  varint   present iff flags bit4: zigzag(branch target - this pc)
//! pred    4 bytes  present iff flags bit4: predictability f32 LE
//! ```
//!
//! No record carries a position, in the file or once decoded: an
//! instruction's position is where it sits, the block's first position plus
//! its index.  Deltas reset at block boundaries so every block decodes
//! independently — random access and checkpoint resume work the same as v1,
//! and [`crate::source::block_digest_at`] the block's first position, over
//! the decoded instructions, still guards content integrity (the digest is
//! over the *instructions*, not the encoding, so it is identical across
//! container versions).
//!
//! Decoding never panics on hostile bytes: every read is bounds-checked and
//! every ordinal is range-checked, returning a message the caller wraps into
//! a typed [`crate::source::TraceSourceError`].

use crate::inst::BranchInfo;
use crate::{DynInst, MemWidth, Op, Reg, NUM_ARCH_REGS};

/// Opcode ordinals: index in this table == on-disk byte.  Appending new
/// opcodes is forwards-compatible; reordering is a format break.
const OPS: [Op; 16] = [
    Op::Add,
    Op::Sub,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Shl,
    Op::Shr,
    Op::CmpLt,
    Op::Mul,
    Op::FpAdd,
    Op::FpMul,
    Op::Load,
    Op::Store,
    Op::Branch,
    Op::Jump,
    Op::Nop,
];

fn op_code(op: Op) -> u8 {
    match op {
        Op::Add => 0,
        Op::Sub => 1,
        Op::And => 2,
        Op::Or => 3,
        Op::Xor => 4,
        Op::Shl => 5,
        Op::Shr => 6,
        Op::CmpLt => 7,
        Op::Mul => 8,
        Op::FpAdd => 9,
        Op::FpMul => 10,
        Op::Load => 11,
        Op::Store => 12,
        Op::Branch => 13,
        Op::Jump => 14,
        Op::Nop => 15,
    }
}

fn width_code(w: MemWidth) -> u8 {
    match w {
        MemWidth::B1 => 0,
        MemWidth::B2 => 1,
        MemWidth::B4 => 2,
        MemWidth::B8 => 3,
    }
}

fn width_of(code: u8) -> MemWidth {
    match code & 3 {
        0 => MemWidth::B1,
        1 => MemWidth::B2,
        2 => MemWidth::B4,
        _ => MemWidth::B8,
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[inline]
fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

const FLAG_DST: u8 = 1 << 0;
const FLAG_SRC1: u8 = 1 << 1;
const FLAG_SRC2: u8 = 1 << 2;
const FLAG_ADDR: u8 = 1 << 3;
const FLAG_BRANCH: u8 = 1 << 4;
const FLAG_TAKEN: u8 = 1 << 5;

/// Shortest record: flags, opcode, one-byte `pc` and `imm` varints.
const MIN_RECORD_BYTES: usize = 4;

/// Encodes a block of instructions into `out` (appending).
pub(crate) fn encode_block(insts: &[DynInst], out: &mut Vec<u8>) {
    let mut prev_pc: u64 = 0;
    let mut prev_addr: u64 = 0;
    for inst in insts {
        let mut flags = width_code(inst.width) << 6;
        flags |= FLAG_DST * u8::from(inst.dst.is_some());
        flags |= FLAG_SRC1 * u8::from(inst.src1.is_some());
        flags |= FLAG_SRC2 * u8::from(inst.src2.is_some());
        flags |= FLAG_ADDR * u8::from(inst.addr.is_some());
        if let Some(b) = inst.branch {
            flags |= FLAG_BRANCH | (FLAG_TAKEN * u8::from(b.taken));
        }
        out.push(flags);
        out.push(op_code(inst.op));
        for reg in [inst.dst, inst.src1, inst.src2].into_iter().flatten() {
            out.push(reg.index() as u8);
        }
        put_varint(zigzag(inst.pc.wrapping_sub(prev_pc) as i64), out);
        prev_pc = inst.pc;
        put_varint(zigzag(inst.imm as i64), out);
        if let Some(addr) = inst.addr {
            put_varint(zigzag(addr.wrapping_sub(prev_addr) as i64), out);
            prev_addr = addr;
        }
        if let Some(b) = inst.branch {
            put_varint(zigzag(b.target.wrapping_sub(inst.pc) as i64), out);
            out.extend_from_slice(&b.predictability.to_le_bytes());
        }
    }
}

/// Why a record did not decode; [`decode_block`] adds the byte position.
enum Malformed {
    Truncated,
    Opcode(u8),
    Register(u8),
    VarintOverflow,
}

/// Bounds-checked byte reader over a block's encoded bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn u8(&mut self) -> Result<u8, Malformed> {
        let b = *self.bytes.get(self.pos).ok_or(Malformed::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, Malformed> {
        let mut v = 0u64;
        for shift in (0..63).step_by(7) {
            let b = self.u8()?;
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        // The 10th byte can only contribute the top bit of a u64, and ends it.
        match self.u8()? {
            b @ 0..=1 => Ok(v | u64::from(b) << 63),
            _ => Err(Malformed::VarintOverflow),
        }
    }

    fn f32(&mut self) -> Result<f32, Malformed> {
        let at = self.pos;
        let bytes: [u8; 4] = self
            .bytes
            .get(at..at + 4)
            .and_then(|s| s.try_into().ok())
            .ok_or(Malformed::Truncated)?;
        self.pos += 4;
        Ok(f32::from_le_bytes(bytes))
    }

    fn reg(&mut self) -> Result<Reg, Malformed> {
        let r = self.u8()?;
        if usize::from(r) >= NUM_ARCH_REGS {
            return Err(Malformed::Register(r));
        }
        Ok(Reg::from_index(usize::from(r)))
    }
}

/// Decodes exactly `count` instructions from `bytes`.
///
/// # Errors
///
/// A description of the first malformation (truncation, trailing bytes,
/// out-of-range opcode or register ordinals); never panics.
pub(crate) fn decode_block(bytes: &[u8], count: usize) -> Result<Vec<DynInst>, String> {
    // `count` comes from the container index: bound it by what the bytes can
    // hold (a record is at least flags, opcode, pc and imm) before reserving.
    if count > bytes.len() / MIN_RECORD_BYTES {
        return Err(format!(
            "{} bytes cannot hold {count} instructions",
            bytes.len()
        ));
    }
    let mut r = Reader { bytes, pos: 0 };
    let insts = decode_records(&mut r, count).map_err(|e| match e {
        Malformed::Truncated => format!("truncated at byte {}", r.pos),
        Malformed::Opcode(op) => format!("opcode ordinal {op} out of range"),
        Malformed::Register(reg) => format!("register index {reg} out of range"),
        Malformed::VarintOverflow => format!("varint overflows u64 at byte {}", r.pos - 1),
    })?;
    if r.pos != bytes.len() {
        return Err(format!(
            "{} trailing bytes after {count} instructions",
            bytes.len() - r.pos
        ));
    }
    Ok(insts)
}

fn decode_records(r: &mut Reader<'_>, count: usize) -> Result<Vec<DynInst>, Malformed> {
    let mut insts = Vec::with_capacity(count);
    let mut prev_pc: u64 = 0;
    let mut prev_addr: u64 = 0;
    for _ in 0..count {
        let flags = r.u8()?;
        let op_byte = r.u8()?;
        let op = *OPS.get(usize::from(op_byte)).ok_or(Malformed::Opcode(op_byte))?;
        let dst = (flags & FLAG_DST != 0).then(|| r.reg()).transpose()?;
        let src1 = (flags & FLAG_SRC1 != 0).then(|| r.reg()).transpose()?;
        let src2 = (flags & FLAG_SRC2 != 0).then(|| r.reg()).transpose()?;
        let pc = prev_pc.wrapping_add(unzigzag(r.varint()?) as u64);
        prev_pc = pc;
        let imm = unzigzag(r.varint()?) as u64;
        let addr = if flags & FLAG_ADDR != 0 {
            let a = prev_addr.wrapping_add(unzigzag(r.varint()?) as u64);
            prev_addr = a;
            Some(a)
        } else {
            None
        };
        let branch = if flags & FLAG_BRANCH != 0 {
            let target = pc.wrapping_add(unzigzag(r.varint()?) as u64);
            Some(BranchInfo {
                taken: flags & FLAG_TAKEN != 0,
                target,
                predictability: r.f32()?,
            })
        } else {
            None
        };
        insts.push(DynInst {
            pc,
            op,
            dst,
            src1,
            src2,
            imm,
            addr,
            width: width_of(flags >> 6),
            branch,
        });
    }
    Ok(insts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Op, Reg};

    fn every_shape() -> Vec<DynInst> {
        let mut v = Vec::new();
        // Every opcode through its natural constructor shape.
        for (k, op) in OPS.into_iter().enumerate() {
            let inst = match op {
                Op::Load => DynInst::load(Reg::int(k % 32), Reg::int(2), 0x4000 + k as u64 * 8),
                Op::Store => DynInst::store(Reg::int(1), Reg::int(2), 0x9000 - k as u64 * 16),
                Op::Branch => DynInst::branch(Reg::int(3), k % 2 == 0, 0x100, 0.75),
                Op::Jump => DynInst::branch(Reg::int(3), true, 0x40, 1.0).with_pc(0x8000),
                Op::Nop => DynInst::nop(),
                _ => DynInst::alu(op, Reg::fp(k % 32), Reg::int(5), Reg::int(6)),
            };
            v.push(inst.with_pc(0x1000 + k as u64 * 4));
        }
        // Every width, a huge immediate, a wrapping-negative immediate, and a
        // backwards branch (negative target delta).
        for (k, w) in [MemWidth::B1, MemWidth::B2, MemWidth::B4, MemWidth::B8]
            .into_iter()
            .enumerate()
        {
            let mut i = DynInst::load(Reg::int(7), Reg::int(8), u64::MAX - 64 + k as u64);
            i.width = w;
            v.push(i.with_pc(0x2000));
        }
        // ... and the two immediates whose zigzag needs all ten varint bytes.
        for imm in [u64::MAX - 5, 1 << 62, 1 << 63] {
            let imm = DynInst::alu_imm(Op::Xor, Reg::int(9), Reg::int(9), imm);
            v.push(imm.with_pc(0x3000));
        }
        let back = DynInst::branch(Reg::int(1), true, 0x10, 0.0).with_pc(0xFFFF_0000);
        v.push(back);
        v
    }

    #[test]
    fn round_trips_every_opcode_width_and_field_shape() {
        let insts = every_shape();
        let mut bytes = Vec::new();
        encode_block(&insts, &mut bytes);
        let back = decode_block(&bytes, insts.len()).expect("decode");
        assert_eq!(back, insts);
    }

    #[test]
    fn zigzag_is_an_involution_at_the_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 63, -64] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn truncation_at_every_byte_is_an_error_not_a_panic() {
        let insts = every_shape();
        let mut bytes = Vec::new();
        encode_block(&insts, &mut bytes);
        for cut in 0..bytes.len() {
            let err = decode_block(&bytes[..cut], insts.len());
            assert!(err.is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let insts = vec![DynInst::nop().with_pc(0x1000)];
        let mut bytes = Vec::new();
        encode_block(&insts, &mut bytes);
        bytes.push(0x00);
        assert!(decode_block(&bytes, 1).unwrap_err().contains("trailing"));
    }

    #[test]
    fn hostile_ordinals_are_errors() {
        // Opcode ordinal 16 does not exist (OPS covers 0..16).
        let bytes = [0u8, 16, 0, 0];
        assert!(decode_block(&bytes, 1).unwrap_err().contains("opcode ordinal 16"));
        // Register index 64 is out of range.
        let bytes = [FLAG_DST, 15, 64, 0, 0];
        assert!(decode_block(&bytes, 1).unwrap_err().contains("register index 64"));
    }

    #[test]
    fn hostile_varints_are_errors() {
        // A 10th byte that continues: longer than any u64 varint.
        let mut bytes = vec![0u8, 15];
        bytes.extend_from_slice(&[0x80; 10]);
        bytes.push(0x01);
        assert_eq!(decode_block(&bytes, 1).unwrap_err(), "varint overflows u64 at byte 11");
        // A 10-byte varint whose final byte overflows the top bit.
        let mut bytes = vec![0u8, 15];
        bytes.extend_from_slice(&[0x80; 9]);
        bytes.push(0x7F);
        assert_eq!(decode_block(&bytes, 1).unwrap_err(), "varint overflows u64 at byte 11");
    }

    #[test]
    fn a_block_digest_depends_on_its_first_position() {
        // The bytes carry no position, so one encoded block placed at two
        // first positions decodes to equal records and two identities.
        let insts = every_shape();
        let mut bytes = Vec::new();
        encode_block(&insts, &mut bytes);
        let back = decode_block(&bytes, insts.len()).expect("decode");
        assert_eq!(back, insts);
        let digest = |first| crate::source::block_digest_at(first, &back);
        assert_eq!(digest(0), crate::source::block_digest_of(&insts));
        assert_ne!(digest(0), digest(700));
        assert_ne!(digest(700), digest(701));
    }

    #[test]
    fn dense_code_is_a_few_bytes_per_instruction() {
        // Straight-line code with striding addresses — the common case the
        // delta encoding is built for — should cost well under a quarter of
        // the ~45-byte serde record.
        let insts: Vec<DynInst> = (0..1000u64)
            .map(|k| {
                DynInst::load(Reg::int((k % 30) as usize), Reg::int(31), 0x10000 + k * 64)
                    .with_pc(0x1000 + k * 4)
            })
            .collect();
        let mut bytes = Vec::new();
        encode_block(&insts, &mut bytes);
        let per_inst = bytes.len() as f64 / insts.len() as f64;
        assert!(per_inst <= 10.0, "{per_inst} bytes/inst");
    }
}
