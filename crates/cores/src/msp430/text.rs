//! Text front end for the MSP430 assembler.
//!
//! Accepts the classic TI-style syntax:
//!
//! ```text
//! ; 16-bit countdown
//!     mov  #5, r4
//! loop:
//!     sub  #1, r4
//!     jnz  loop
//!     halt
//! ```
//!
//! Supported operands: registers `r0..r15` (aliases `pc`, `sp`, `sr`),
//! immediates `#imm` (decimal or `#0x..`), indirect `@rN`, auto-increment
//! `@rN+`, indexed `x(rN)`, and label references for jumps.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use super::asm::{Assembler, Label};
use super::isa::{Dst, JumpCond, Src};

/// Errors produced by [`parse_asm`].
#[derive(Debug, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for AsmError {}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

fn parse_number(token: &str, line: usize) -> Result<u16, AsmError> {
    let value = if let Some(hex) = token
        .strip_prefix("0x")
        .or_else(|| token.strip_prefix("0X"))
    {
        i64::from_str_radix(hex, 16)
    } else if let Some(neg) = token.strip_prefix('-') {
        neg.parse::<i64>().map(|v| -v)
    } else {
        token.parse::<i64>()
    }
    .map_err(|_| err(line, format!("bad number `{token}`")))?;
    if !(-32768..65536).contains(&value) {
        return Err(err(line, format!("number `{token}` out of word range")));
    }
    Ok(value as u16)
}

fn parse_reg(token: &str, line: usize) -> Result<u8, AsmError> {
    match token.to_ascii_lowercase().as_str() {
        "pc" => return Ok(0),
        "sp" => return Ok(1),
        "sr" => return Ok(2),
        _ => {}
    }
    let rest = token
        .strip_prefix(['r', 'R'])
        .ok_or_else(|| err(line, format!("expected register, got `{token}`")))?;
    let n: u8 = rest
        .parse()
        .map_err(|_| err(line, format!("bad register `{token}`")))?;
    if n >= 16 {
        return Err(err(line, format!("register `{token}` out of range")));
    }
    Ok(n)
}

fn parse_src(token: &str, line: usize) -> Result<Src, AsmError> {
    if let Some(imm) = token.strip_prefix('#') {
        return Ok(Src::Imm(parse_number(imm, line)?));
    }
    if let Some(ind) = token.strip_prefix('@') {
        return if let Some(reg) = ind.strip_suffix('+') {
            Ok(Src::AutoInc(parse_reg(reg, line)?))
        } else {
            Ok(Src::Indirect(parse_reg(ind, line)?))
        };
    }
    if let Some((offset, rest)) = token.split_once('(') {
        let reg = rest
            .strip_suffix(')')
            .ok_or_else(|| err(line, format!("missing `)` in `{token}`")))?;
        return Ok(Src::Indexed(
            parse_reg(reg.trim(), line)?,
            parse_number(offset.trim(), line)?,
        ));
    }
    Ok(Src::Reg(parse_reg(token, line)?))
}

fn parse_dst(token: &str, line: usize) -> Result<Dst, AsmError> {
    if let Some((offset, rest)) = token.split_once('(') {
        let reg = rest
            .strip_suffix(')')
            .ok_or_else(|| err(line, format!("missing `)` in `{token}`")))?;
        return Ok(Dst::Indexed(
            parse_reg(reg.trim(), line)?,
            parse_number(offset.trim(), line)?,
        ));
    }
    Ok(Dst::Reg(parse_reg(token, line)?))
}

/// Assembles MSP430 text into a word image.
///
/// # Errors
///
/// Returns [`AsmError`] with the offending source line for unknown
/// mnemonics, malformed operands, and undefined or duplicate labels.
pub fn parse_asm(source: &str) -> Result<Vec<u16>, AsmError> {
    let mut asm = Assembler::new();
    let mut labels: HashMap<String, Label> = HashMap::new();
    let mut bound: HashMap<String, usize> = HashMap::new();
    let mut get_label = |asm: &mut Assembler, name: &str| -> Label {
        *labels
            .entry(name.to_owned())
            .or_insert_with(|| asm.new_label())
    };

    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split(';').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut rest = line;
        while let Some(colon) = rest.find(':') {
            let (name, tail) = rest.split_at(colon);
            let name = name.trim();
            if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                break;
            }
            if bound.insert(name.to_owned(), line_no).is_some() {
                return Err(err(line_no, format!("label `{name}` defined twice")));
            }
            let label = get_label(&mut asm, name);
            asm.bind(label);
            rest = tail[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }

        let (mnemonic, operand_text) = match rest.split_once(char::is_whitespace) {
            Some((m, o)) => (m, o.trim()),
            None => (rest, ""),
        };
        let operands: Vec<&str> = if operand_text.is_empty() {
            Vec::new()
        } else {
            operand_text.split(',').map(str::trim).collect()
        };
        let want = |n: usize| -> Result<(), AsmError> {
            if operands.len() == n {
                Ok(())
            } else {
                Err(err(
                    line_no,
                    format!(
                        "`{mnemonic}` expects {n} operand(s), got {}",
                        operands.len()
                    ),
                ))
            }
        };

        let mnemonic_lc = mnemonic.to_ascii_lowercase();
        match mnemonic_lc.as_str() {
            "nop" => {
                want(0)?;
                asm.nop();
            }
            "halt" => {
                want(0)?;
                asm.halt();
            }
            "mov" | "add" | "addc" | "sub" | "subc" | "cmp" | "bit" | "bic" | "bis" | "xor"
            | "and" => {
                want(2)?;
                let src = parse_src(operands[0], line_no)?;
                let dst = parse_dst(operands[1], line_no)?;
                match mnemonic_lc.as_str() {
                    "mov" => asm.mov(src, dst),
                    "add" => asm.add(src, dst),
                    "addc" => asm.addc(src, dst),
                    "sub" => asm.sub(src, dst),
                    "subc" => asm.subc(src, dst),
                    "cmp" => asm.cmp(src, dst),
                    "bit" => asm.bit(src, dst),
                    "bic" => asm.bic(src, dst),
                    "bis" => asm.bis(src, dst),
                    "xor" => asm.xor(src, dst),
                    _ => asm.and(src, dst),
                };
            }
            "rrc" | "rra" | "swpb" | "sxt" => {
                want(1)?;
                let reg = parse_reg(operands[0], line_no)?;
                match mnemonic_lc.as_str() {
                    "rrc" => asm.rrc(reg),
                    "rra" => asm.rra(reg),
                    "swpb" => asm.swpb(reg),
                    _ => asm.sxt(reg),
                };
            }
            "jne" | "jnz" | "jeq" | "jz" | "jnc" | "jc" | "jn" | "jge" | "jl" | "jmp" => {
                want(1)?;
                let label = get_label(&mut asm, operands[0]);
                let cond = match mnemonic_lc.as_str() {
                    "jne" | "jnz" => JumpCond::Jne,
                    "jeq" | "jz" => JumpCond::Jeq,
                    "jnc" => JumpCond::Jnc,
                    "jc" => JumpCond::Jc,
                    "jn" => JumpCond::Jn,
                    "jge" => JumpCond::Jge,
                    "jl" => JumpCond::Jl,
                    _ => JumpCond::Jmp,
                };
                asm.jump(cond, label);
            }
            other => return Err(err(line_no, format!("unknown mnemonic `{other}`"))),
        }
    }

    for name in labels.keys() {
        if !bound.contains_key(name) {
            return Err(AsmError {
                line: 0,
                message: format!("label `{name}` used but never defined"),
            });
        }
    }
    Ok(asm.assemble())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msp430::model::Msp430Model;

    #[test]
    fn countdown_program_runs() {
        let image = parse_asm(
            "    mov #5, r4\n    mov #0, r5\nloop:\n    add r4, r5\n    sub #1, r4\n    \
             jnz loop\n    halt\n",
        )
        .unwrap();
        let mut m = Msp430Model::new(&image);
        m.run(1000);
        assert!(m.halted());
        assert_eq!(m.regs[5], 15);
    }

    #[test]
    fn all_addressing_modes() {
        let image = parse_asm(
            "    mov #0x300, r4\n    mov #0xBEEF, 0(r4)\n    mov #1, 1(r4)\n    mov @r4, r5\n    \
             mov #0x300, r6\n    mov @r6+, r7\n    mov 0(r6), r8\n    halt\n",
        )
        .unwrap();
        let mut m = Msp430Model::new(&image);
        m.run(1000);
        assert!(m.halted());
        assert_eq!(m.regs[5], 0xBEEF);
        assert_eq!(m.regs[7], 0xBEEF);
        assert_eq!(m.regs[8], 1);
        assert_eq!(m.mem[0x301], 1);
    }

    #[test]
    fn register_aliases() {
        // `mov #addr, pc` is a branch.
        let image = parse_asm("    mov #4, pc\n    halt\n    mov #7, r10\n    halt\n").unwrap();
        let mut m = Msp430Model::new(&image);
        m.run(100);
        assert!(m.halted());
        assert_eq!(m.regs[10], 7);
    }

    #[test]
    fn text_matches_programmatic_assembler() {
        let text = parse_asm("    mov #100, r4\n    add @r4+, 2(r5)\n    halt\n").unwrap();
        let mut a = Assembler::new();
        a.mov(Src::Imm(100), Dst::Reg(4));
        a.add(Src::AutoInc(4), Dst::Indexed(5, 2));
        a.halt();
        assert_eq!(text, a.assemble());
    }

    #[test]
    fn error_reporting() {
        assert!(parse_asm("    frob r1\n")
            .unwrap_err()
            .message
            .contains("unknown"));
        assert!(parse_asm("    mov #1\n")
            .unwrap_err()
            .message
            .contains("expects 2"));
        assert!(parse_asm("    mov #1, r99\n")
            .unwrap_err()
            .message
            .contains("range"));
        assert!(parse_asm("    mov 2(r4, r5\n")
            .unwrap_err()
            .message
            .contains(')'));
        assert!(parse_asm("    jmp away\n")
            .unwrap_err()
            .message
            .contains("never defined"));
    }
}
