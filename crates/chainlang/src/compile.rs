//! Checking and code generation: Chainlang → `tc-bitir` IR.
//!
//! This is the analogue of the paper's Julia integration path: a high-level,
//! statically analysable subset of a dynamic-feeling language is lowered to
//! the same portable IR the C path produces, and from there flows through the
//! unchanged Three-Chains pipeline (fat-bitcode, shipping, remote JIT,
//! execution).  The *restriction checker* plays the role of GPUCompiler.jl's
//! constraints: no dynamic dispatch (calls must resolve to user functions,
//! typed builtins or whitelisted framework/library externals), no global
//! state, and explicit types on every binding.

use crate::ast::{BinOpKind, Expr, FnDef, Program, Stmt, Ty};
use crate::error::{ChainlangError, Result};
use crate::parser::parse;
use std::collections::HashMap;
use tc_bitir::{BinOp, FuncId, FunctionBuilder, Module, ModuleBuilder, Reg, ScalarType};

/// Builtin memory-access functions: `(name, loaded/stored type, is_store)`.
const BUILTINS: &[(&str, ScalarType, bool)] = &[
    ("load_u8", ScalarType::U8, false),
    ("load_u16", ScalarType::U16, false),
    ("load_u32", ScalarType::U32, false),
    ("load_u64", ScalarType::U64, false),
    ("load_i64", ScalarType::I64, false),
    ("load_f64", ScalarType::F64, false),
    ("store_u8", ScalarType::U8, true),
    ("store_u16", ScalarType::U16, true),
    ("store_u32", ScalarType::U32, true),
    ("store_u64", ScalarType::U64, true),
    ("store_i64", ScalarType::I64, true),
    ("store_f64", ScalarType::F64, true),
];

fn is_builtin(name: &str) -> Option<(ScalarType, bool)> {
    BUILTINS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, ty, st)| (*ty, *st))
}

/// External symbols a Chainlang program may call: the framework services and
/// the exports of every simulated library, as `tc-jit` links them.  Anything
/// else is "dynamic dispatch" and rejected by the restriction checker.
fn is_whitelisted_external(name: &str) -> bool {
    tc_jit::LoadedLibs::ALL.links(name)
}

fn scalar_of(ty: Ty) -> ScalarType {
    match ty {
        Ty::U64 => ScalarType::U64,
        Ty::I64 => ScalarType::I64,
        Ty::F64 => ScalarType::F64,
    }
}

/// Compile Chainlang source text into a portable IR module named
/// `module_name`.
pub fn compile_source(module_name: &str, source: &str) -> Result<Module> {
    let program = parse(source)?;
    compile_program(module_name, &program)
}

/// Compile a parsed program into a portable IR module.
pub fn compile_program(module_name: &str, program: &Program) -> Result<Module> {
    check_program(program)?;

    let mut mb = ModuleBuilder::new(module_name);
    for dep in &program.deps {
        mb.add_dep(dep.clone());
    }

    // Function ids are assigned in definition order, enabling forward and
    // recursive calls.
    let func_ids: HashMap<&str, FuncId> = program
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), FuncId(i as u32)))
        .collect();

    for def in &program.functions {
        compile_function(&mut mb, program, &func_ids, def)?;
    }

    let module = mb.build();
    tc_bitir::verify_module(&module)?;
    Ok(module)
}

/// Restriction checker: the statically-offloadable subset.
fn check_program(program: &Program) -> Result<()> {
    if program.functions.is_empty() {
        return Err(ChainlangError::Check("program defines no functions".into()));
    }
    let mut names = std::collections::HashSet::new();
    for f in &program.functions {
        if !names.insert(f.name.as_str()) {
            return Err(ChainlangError::Check(format!(
                "function `{}` defined more than once",
                f.name
            )));
        }
        if is_builtin(&f.name).is_some() {
            return Err(ChainlangError::Restriction(format!(
                "function `{}` shadows a builtin",
                f.name
            )));
        }
    }
    if let Some(main) = program.function("main") {
        if main.params.len() != 3 || main.ret != Some(Ty::I64) {
            return Err(ChainlangError::Restriction(
                "ifunc entry `main` must have signature (payload: u64, len: u64, target: u64) -> i64"
                    .into(),
            ));
        }
    }
    // Every call must resolve statically.
    for f in &program.functions {
        check_calls(program, &f.body)?;
    }
    Ok(())
}

fn check_calls(program: &Program, stmts: &[Stmt]) -> Result<()> {
    for stmt in stmts {
        match stmt {
            Stmt::Let { value, .. }
            | Stmt::Assign { value, .. }
            | Stmt::Return(value)
            | Stmt::Expr(value) => check_call_expr(program, value)?,
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                check_call_expr(program, cond)?;
                check_calls(program, then_body)?;
                check_calls(program, else_body)?;
            }
            Stmt::While { cond, body } => {
                check_call_expr(program, cond)?;
                check_calls(program, body)?;
            }
        }
    }
    Ok(())
}

fn check_call_expr(program: &Program, expr: &Expr) -> Result<()> {
    match expr {
        Expr::Bin { lhs, rhs, .. } => {
            check_call_expr(program, lhs)?;
            check_call_expr(program, rhs)
        }
        Expr::Call { name, args } => {
            for a in args {
                check_call_expr(program, a)?;
            }
            if program.function(name).is_some()
                || is_builtin(name).is_some()
                || is_whitelisted_external(name)
            {
                Ok(())
            } else {
                Err(ChainlangError::Restriction(format!(
                    "call to `{name}` cannot be resolved statically (dynamic dispatch is not \
                     supported in the offloadable subset)"
                )))
            }
        }
        _ => Ok(()),
    }
}

struct FnCtx<'a> {
    program: &'a Program,
    func_ids: &'a HashMap<&'a str, FuncId>,
    vars: HashMap<String, (Reg, Ty)>,
}

fn compile_function(
    mb: &mut ModuleBuilder,
    program: &Program,
    func_ids: &HashMap<&str, FuncId>,
    def: &FnDef,
) -> Result<()> {
    let is_entry = def.name == Module::ENTRY_NAME;
    let param_types: Vec<ScalarType> = if is_entry {
        vec![ScalarType::Ptr, ScalarType::U64, ScalarType::Ptr]
    } else {
        def.params.iter().map(|(_, t)| scalar_of(*t)).collect()
    };
    let ret_type = def.ret.map(scalar_of);

    let mut f = mb.function(def.name.clone(), param_types, ret_type);
    let mut ctx = FnCtx {
        program,
        func_ids,
        vars: HashMap::new(),
    };
    for (i, (pname, pty)) in def.params.iter().enumerate() {
        ctx.vars.insert(pname.clone(), (f.param(i), *pty));
    }

    let terminated = compile_block(&mut f, &mut ctx, &def.body)?;
    if !terminated {
        // Implicit return for functions that fall off the end.
        match def.ret {
            None => f.ret_void(),
            Some(ty) => {
                let zero = f.const_bits(scalar_of(ty), 0);
                f.ret(zero);
            }
        }
    }
    f.finish();
    Ok(())
}

/// Compile statements into the current block; returns true when the block was
/// terminated by a `return` on every path that reached the end.
fn compile_block(f: &mut FunctionBuilder<'_>, ctx: &mut FnCtx<'_>, stmts: &[Stmt]) -> Result<bool> {
    for (i, stmt) in stmts.iter().enumerate() {
        match stmt {
            Stmt::Let { name, ty, value } => {
                let (reg, vty) = compile_expr(f, ctx, value, Some(*ty))?;
                if vty != *ty {
                    return Err(ChainlangError::Check(format!(
                        "let `{name}`: declared {} but initialiser has type {}",
                        ty.name(),
                        vty.name()
                    )));
                }
                // Copy into a dedicated register so later assignments don't
                // alias whatever produced the value.
                let var = f.copy(reg);
                ctx.vars.insert(name.clone(), (var, *ty));
            }
            Stmt::Assign { name, value } => {
                let (var, vty) = *ctx.vars.get(name).ok_or_else(|| {
                    ChainlangError::Check(format!("assignment to undefined variable `{name}`"))
                })?;
                let (reg, ety) = compile_expr(f, ctx, value, Some(vty))?;
                if ety != vty {
                    return Err(ChainlangError::Check(format!(
                        "assignment to `{name}`: variable is {} but value is {}",
                        vty.name(),
                        ety.name()
                    )));
                }
                f.assign(var, reg);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let (c, _) = compile_expr(f, ctx, cond, Some(Ty::U64))?;
                let then_blk = f.new_block();
                let else_blk = f.new_block();
                let join_blk = f.new_block();
                f.br_if(c, then_blk, else_blk);

                f.switch_to(then_blk);
                let t_term = compile_block(f, ctx, then_body)?;
                if !t_term {
                    f.br(join_blk);
                }
                f.switch_to(else_blk);
                let e_term = compile_block(f, ctx, else_body)?;
                if !e_term {
                    f.br(join_blk);
                }
                f.switch_to(join_blk);
                if t_term && e_term {
                    // Both arms returned; the join block is unreachable but
                    // must still be well formed.
                    if i == stmts.len() - 1 {
                        f.trap(0xdead);
                        return Ok(true);
                    }
                }
            }
            Stmt::While { cond, body } => {
                let header = f.new_block();
                let body_blk = f.new_block();
                let exit_blk = f.new_block();
                f.br(header);
                f.switch_to(header);
                let (c, _) = compile_expr(f, ctx, cond, Some(Ty::U64))?;
                f.br_if(c, body_blk, exit_blk);
                f.switch_to(body_blk);
                let terminated = compile_block(f, ctx, body)?;
                if !terminated {
                    f.br(header);
                }
                f.switch_to(exit_blk);
            }
            Stmt::Return(value) => {
                let (reg, _) = compile_expr(f, ctx, value, None)?;
                f.ret(reg);
                return Ok(true);
            }
            Stmt::Expr(expr) => {
                compile_expr(f, ctx, expr, None)?;
            }
        }
    }
    Ok(false)
}

fn compile_expr(
    f: &mut FunctionBuilder<'_>,
    ctx: &mut FnCtx<'_>,
    expr: &Expr,
    expected: Option<Ty>,
) -> Result<(Reg, Ty)> {
    match expr {
        Expr::Int(v) => {
            let ty = match expected {
                Some(Ty::F64) => {
                    return Err(ChainlangError::Check(format!(
                        "integer literal {v} used where f64 is expected; write `{v}.0`"
                    )))
                }
                Some(t) => t,
                None => Ty::U64,
            };
            Ok((f.const_bits(scalar_of(ty), *v), ty))
        }
        Expr::Float(v) => Ok((f.const_f64(*v), Ty::F64)),
        Expr::Var(name) => ctx
            .vars
            .get(name)
            .copied()
            .ok_or_else(|| ChainlangError::Check(format!("use of undefined variable `{name}`"))),
        Expr::Bin { op, lhs, rhs } => {
            let (l, lty) = compile_expr(f, ctx, lhs, expected)?;
            let (r, rty) = compile_expr(f, ctx, rhs, Some(lty))?;
            if lty != rty {
                return Err(ChainlangError::Check(format!(
                    "operands of `{op:?}` have mismatched types {} and {}",
                    lty.name(),
                    rty.name()
                )));
            }
            let sty = scalar_of(lty);
            let (bitir_op, result_ty) = match op {
                BinOpKind::Add => (
                    if lty == Ty::F64 {
                        BinOp::FAdd
                    } else {
                        BinOp::Add
                    },
                    lty,
                ),
                BinOpKind::Sub => (
                    if lty == Ty::F64 {
                        BinOp::FSub
                    } else {
                        BinOp::Sub
                    },
                    lty,
                ),
                BinOpKind::Mul => (
                    if lty == Ty::F64 {
                        BinOp::FMul
                    } else {
                        BinOp::Mul
                    },
                    lty,
                ),
                BinOpKind::Div => (
                    if lty == Ty::F64 {
                        BinOp::FDiv
                    } else {
                        BinOp::Div
                    },
                    lty,
                ),
                BinOpKind::Rem => {
                    if lty == Ty::F64 {
                        return Err(ChainlangError::Check("`%` is not defined for f64".into()));
                    }
                    (BinOp::Rem, lty)
                }
                BinOpKind::Eq => (BinOp::CmpEq, Ty::U64),
                BinOpKind::Ne => (BinOp::CmpNe, Ty::U64),
                BinOpKind::Lt => (BinOp::CmpLt, Ty::U64),
                BinOpKind::Le => (BinOp::CmpLe, Ty::U64),
                BinOpKind::Gt => (BinOp::CmpGt, Ty::U64),
                BinOpKind::Ge => (BinOp::CmpGe, Ty::U64),
                BinOpKind::And => {
                    if lty == Ty::F64 {
                        return Err(ChainlangError::Check(
                            "`&&` requires integer operands".into(),
                        ));
                    }
                    (BinOp::And, Ty::U64)
                }
                BinOpKind::Or => {
                    if lty == Ty::F64 {
                        return Err(ChainlangError::Check(
                            "`||` requires integer operands".into(),
                        ));
                    }
                    (BinOp::Or, Ty::U64)
                }
            };
            Ok((f.bin(bitir_op, sty, l, r), result_ty))
        }
        Expr::Call { name, args } => compile_call(f, ctx, name, args, expected),
    }
}

fn compile_call(
    f: &mut FunctionBuilder<'_>,
    ctx: &mut FnCtx<'_>,
    name: &str,
    args: &[Expr],
    _expected: Option<Ty>,
) -> Result<(Reg, Ty)> {
    // Memory builtins.
    if let Some((sty, is_store)) = is_builtin(name) {
        let value_ty = match sty {
            ScalarType::F64 => Ty::F64,
            ScalarType::I64 => Ty::I64,
            _ => Ty::U64,
        };
        if is_store {
            if args.len() != 3 {
                return Err(ChainlangError::Check(format!(
                    "`{name}` expects (addr, offset, value)"
                )));
            }
            let (addr, _) = compile_expr(f, ctx, &args[0], Some(Ty::U64))?;
            let (off, _) = compile_expr(f, ctx, &args[1], Some(Ty::U64))?;
            let (val, vty) = compile_expr(f, ctx, &args[2], Some(value_ty))?;
            if vty != value_ty {
                return Err(ChainlangError::Check(format!(
                    "`{name}` stores {} but the value has type {}",
                    value_ty.name(),
                    vty.name()
                )));
            }
            // addr + offset computed explicitly (offsets may be dynamic).
            let ea = f.bin(BinOp::Add, ScalarType::U64, addr, off);
            f.store(sty, val, ea, 0);
            let zero = f.const_u64(0);
            Ok((zero, Ty::U64))
        } else {
            if args.len() != 2 {
                return Err(ChainlangError::Check(format!(
                    "`{name}` expects (addr, offset)"
                )));
            }
            let (addr, _) = compile_expr(f, ctx, &args[0], Some(Ty::U64))?;
            let (off, _) = compile_expr(f, ctx, &args[1], Some(Ty::U64))?;
            let ea = f.bin(BinOp::Add, ScalarType::U64, addr, off);
            Ok((f.load(sty, ea, 0), value_ty))
        }
    } else if let Some(def) = ctx.program.function(name) {
        if def.params.len() != args.len() {
            return Err(ChainlangError::Check(format!(
                "`{name}` expects {} arguments, got {}",
                def.params.len(),
                args.len()
            )));
        }
        let mut arg_regs = Vec::with_capacity(args.len());
        for (a, (_, pty)) in args.iter().zip(&def.params) {
            let (r, aty) = compile_expr(f, ctx, a, Some(*pty))?;
            if aty != *pty {
                return Err(ChainlangError::Check(format!(
                    "argument to `{name}` has type {} but parameter is {}",
                    aty.name(),
                    pty.name()
                )));
            }
            arg_regs.push(r);
        }
        let id = ctx.func_ids[name];
        let ret_ty = def.ret.unwrap_or(Ty::U64);
        let dst = f.call(id, arg_regs, def.ret.is_some());
        let reg = match dst {
            Some(r) => r,
            None => f.const_u64(0),
        };
        Ok((reg, ret_ty))
    } else if is_whitelisted_external(name) {
        let mut arg_regs = Vec::with_capacity(args.len());
        for a in args {
            let (r, _) = compile_expr(f, ctx, a, Some(Ty::U64))?;
            arg_regs.push(r);
        }
        let dst = f
            .call_ext(name, arg_regs, true)
            .expect("ext call returns value");
        Ok((dst, Ty::U64))
    } else {
        Err(ChainlangError::Restriction(format!(
            "call to `{name}` cannot be resolved statically"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_jit::{CompileOptions, Engine, Memory, MemoryExt, NoExternals, VecMemory};

    const TSI_SRC: &str = r#"
        fn main(payload: u64, len: u64, target: u64) -> i64 {
            let delta: u64 = load_u8(payload, 0);
            let counter: u64 = load_u64(target, 0);
            store_u64(target, 0, counter + delta);
            return 0;
        }
    "#;

    #[test]
    fn tsi_compiles_and_runs() {
        let module = compile_source("tsi_jl", TSI_SRC).unwrap();
        assert!(module.entry().is_some());
        let compiled = tc_jit::compile_module(&module, CompileOptions::default()).unwrap();
        let mut mem = VecMemory::new(0, 4096);
        mem.write(0, &[5]).unwrap();
        mem.write_u64(2048, 10).unwrap();
        Engine::new()
            .run(
                &compiled.module,
                "main",
                &[0, 1, 2048],
                &[],
                &mut mem,
                &mut NoExternals,
            )
            .unwrap();
        assert_eq!(mem.read_u64(2048).unwrap(), 15);
    }

    #[test]
    fn loops_and_calls_produce_correct_results() {
        let src = r#"
            fn square(x: u64) -> u64 {
                return x * x;
            }
            fn main(payload: u64, len: u64, target: u64) -> i64 {
                let i: u64 = 0;
                let acc: u64 = 0;
                while i < len {
                    acc = acc + square(load_u8(payload, i));
                    i = i + 1;
                }
                store_u64(target, 0, acc);
                return 0;
            }
        "#;
        let module = compile_source("sumsq", src).unwrap();
        let compiled = tc_jit::compile_module(&module, CompileOptions::default()).unwrap();
        let mut mem = VecMemory::new(0, 4096);
        mem.write(0, &[1, 2, 3, 4]).unwrap();
        Engine::new()
            .run(
                &compiled.module,
                "main",
                &[0, 4, 1024],
                &[],
                &mut mem,
                &mut NoExternals,
            )
            .unwrap();
        assert_eq!(mem.read_u64(1024).unwrap(), 1 + 4 + 9 + 16);
    }

    #[test]
    fn if_else_and_comparisons() {
        let src = r#"
            fn main(payload: u64, len: u64, target: u64) -> i64 {
                let v: u64 = load_u64(payload, 0);
                if v >= 100 || v == 7 {
                    store_u64(target, 0, 1);
                } else {
                    store_u64(target, 0, 2);
                }
                return 0;
            }
        "#;
        let module = compile_source("cmp", src).unwrap();
        let compiled = tc_jit::compile_module(&module, CompileOptions::default()).unwrap();
        let run = |input: u64| {
            let mut mem = VecMemory::new(0, 4096);
            mem.write_u64(0, input).unwrap();
            Engine::new()
                .run(
                    &compiled.module,
                    "main",
                    &[0, 8, 1024],
                    &[],
                    &mut mem,
                    &mut NoExternals,
                )
                .unwrap();
            mem.read_u64(1024).unwrap()
        };
        assert_eq!(run(150), 1);
        assert_eq!(run(7), 1);
        assert_eq!(run(99), 2);
    }

    #[test]
    fn framework_externals_are_allowed_and_emitted() {
        let src = r#"
            fn main(payload: u64, len: u64, target: u64) -> i64 {
                let me: u64 = tc_node_id();
                tc_return_result(0, 3, me);
                return 0;
            }
        "#;
        let module = compile_source("ext", src).unwrap();
        assert!(module.ext_symbols.contains(&"tc_node_id".to_string()));
        assert!(module.ext_symbols.contains(&"tc_return_result".to_string()));
        assert!(!module.is_pure());
    }

    #[test]
    fn restriction_checker_rejects_dynamic_calls() {
        let src = r#"
            fn main(payload: u64, len: u64, target: u64) -> i64 {
                let x: u64 = mystery_function(payload);
                return 0;
            }
        "#;
        let err = compile_source("dyn", src).unwrap_err();
        assert!(matches!(err, ChainlangError::Restriction(_)));
        assert!(err.to_string().contains("mystery_function"));
    }

    #[test]
    fn restriction_checker_rejects_bad_entry_signature() {
        let err = compile_source("bad", "fn main(x: u64) -> i64 { return 0; }").unwrap_err();
        assert!(matches!(err, ChainlangError::Restriction(_)));
    }

    #[test]
    fn type_errors_are_reported() {
        let err = compile_source(
            "badtype",
            "fn f() -> u64 { let x: u64 = 1; let y: f64 = 2.0; return x + y; }",
        )
        .unwrap_err();
        assert!(matches!(err, ChainlangError::Check(_)));

        let err = compile_source("badlet", "fn f() { let x: f64 = 3; }").unwrap_err();
        assert!(err.to_string().contains("f64"));

        let err = compile_source("undef", "fn f() { x = 3; }").unwrap_err();
        assert!(err.to_string().contains("undefined"));
    }

    #[test]
    fn duplicate_and_shadowing_functions_rejected() {
        let err = compile_source("dup", "fn f() {} fn f() {}").unwrap_err();
        assert!(matches!(err, ChainlangError::Check(_)));
        let err = compile_source("shadow", "fn load_u64(a: u64, b: u64) -> u64 { return 0; }")
            .unwrap_err();
        assert!(matches!(err, ChainlangError::Restriction(_)));
    }

    #[test]
    fn chainlang_emits_more_instructions_than_hand_built_ir() {
        // The "Julia path" is expected to be somewhat less tight than the
        // hand-built C path — the paper observes the same effect.
        let chainlang = compile_source("tsi_jl", TSI_SRC).unwrap();
        let mut mb = ModuleBuilder::new("tsi_c");
        {
            let mut f = mb.entry_function();
            let payload = f.param(0);
            let target = f.param(2);
            let delta = f.load(ScalarType::U8, payload, 0);
            let counter = f.load(ScalarType::U64, target, 0);
            let sum = f.bin(BinOp::Add, ScalarType::U64, counter, delta);
            f.store(ScalarType::U64, sum, target, 0);
            let z = f.const_i64(0);
            f.ret(z);
            f.finish();
        }
        let hand = mb.build();
        assert!(chainlang.inst_count() >= hand.inst_count());
    }

    #[test]
    fn deps_flow_into_the_module() {
        let module = compile_source(
            "withdeps",
            "dep \"libm.so\";\nfn main(p: u64, l: u64, t: u64) -> i64 { let s: u64 = sqrt(load_u64(p, 0)); store_u64(t, 0, s); return 0; }",
        )
        .unwrap();
        assert_eq!(module.deps, vec!["libm.so".to_string()]);
        assert!(module.ext_symbols.contains(&"sqrt".to_string()));
    }
}
