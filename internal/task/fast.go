package task

// This file is the slave half of the fast-path execution core (the SEQ half
// lives in internal/cpu/fast.go; see docs/PERFORMANCE.md and
// docs/PARALLEL.md). Slave bodies are the bulk of the parallel engine's
// work — every original-program instruction is executed by some slave — so
// they get the same treatment as cpu.runConcrete: predecoded fetches and
// direct calls on the concrete *slaveEnv instead of interface dispatch, so
// the register live-in tracking inlines into the loop. ReadMem/WriteMem keep
// their full capture semantics (write buffer, checkpoint overlay, live-in
// recording); only the dispatch overhead is gone.
//
// Per-instruction semantics mirror cpu.stepExec exactly, like cpu.runConcrete
// does; TestExecuteFastSlowEquivalence holds the two slave paths together,
// and the chaos corpus differential holds both against the reference machine.

import (
	"mssp/internal/cpu"
	"mssp/internal/isa"
)

// executeFast is the devirtualized Execute body, used whenever the task
// carries a predecode table. A store into the table's range drops this
// execution onto the decode-from-snapshot path for the rest of its life,
// exactly like cpu.Code's dirty flag.
func (t *Task) executeFast(env *slaveEnv, ex *Exec, cap uint64, remaining uint64) {
	base, insts, valid, words := t.Code.Table()
	_ = words
	ilen := uint64(len(insts))
	fast := true
	pc := env.pc

	// Fused dispatch is gated off when the task carries non-speculative
	// regions: the single-step loop checks nonSpecHit after every
	// instruction, and keeping that exact stop point inside a group would
	// mean per-component checks. Tasks with NonSpec regions are the rare
	// ablation case, so they simply run unfused.
	fusedTab := t.Code.FusedTable()
	useFused := len(fusedTab) != 0 && len(t.NonSpec) == 0

	// Cancel polling runs on step-count boundaries. The single-step loop
	// used to test ex.Steps%cancelEvery == 0; fused dispatch advances Steps
	// by group sizes and would skip exact multiples, so the poll is due
	// whenever Steps has reached nextPoll — never deferred by more than one
	// group.
	nextPoll := ex.Steps

	for ex.Steps < cap {
		if t.Cancel != nil && ex.Steps >= nextPoll {
			if t.Cancel() {
				env.pc = pc
				ex.Outcome = OutcomeCanceled
				t.finish(env, ex)
				return
			}
			nextPoll = ex.Steps + cancelEvery
		}

		var in isa.Inst
		if i := pc - base; fast && i < ilen {
			if !valid[i] {
				env.pc = pc
				ex.Outcome = OutcomeFault
				t.finish(env, ex)
				return
			}
			if useFused {
				if next, ok := t.dispatchFused(env, ex, fusedTab, pc, base, ilen, cap, &fast); ok {
					pc = next
					if t.HasEnd && pc == t.End {
						remaining--
						if remaining == 0 {
							env.pc = pc
							ex.Outcome = OutcomeReachedEnd
							t.finish(env, ex)
							return
						}
					}
					continue
				}
			}
			in = insts[i]
		} else {
			w := env.Fetch(pc)
			in = isa.Decode(w)
			if !in.Op.Valid() {
				env.pc = pc
				ex.Outcome = OutcomeFault
				t.finish(env, ex)
				return
			}
		}

		next := pc + 1
		switch in.Op {
		case isa.OpNop, isa.OpFork:
			// FORK is architecturally a no-op in original programs.

		case isa.OpAdd:
			env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))+env.ReadReg(int(in.Rs2)))
		case isa.OpSub:
			env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))-env.ReadReg(int(in.Rs2)))
		case isa.OpMul:
			env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))*env.ReadReg(int(in.Rs2)))
		case isa.OpDiv:
			env.WriteReg(int(in.Rd), cpu.DivSigned(env.ReadReg(int(in.Rs1)), env.ReadReg(int(in.Rs2))))
		case isa.OpRem:
			env.WriteReg(int(in.Rd), cpu.RemSigned(env.ReadReg(int(in.Rs1)), env.ReadReg(int(in.Rs2))))
		case isa.OpAnd:
			env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))&env.ReadReg(int(in.Rs2)))
		case isa.OpOr:
			env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))|env.ReadReg(int(in.Rs2)))
		case isa.OpXor:
			env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))^env.ReadReg(int(in.Rs2)))
		case isa.OpSll:
			env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))<<(env.ReadReg(int(in.Rs2))&63))
		case isa.OpSrl:
			env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))>>(env.ReadReg(int(in.Rs2))&63))
		case isa.OpSra:
			env.WriteReg(int(in.Rd), uint64(int64(env.ReadReg(int(in.Rs1)))>>(env.ReadReg(int(in.Rs2))&63)))
		case isa.OpSlt:
			env.WriteReg(int(in.Rd), cpu.BoolWord(int64(env.ReadReg(int(in.Rs1))) < int64(env.ReadReg(int(in.Rs2)))))
		case isa.OpSltu:
			env.WriteReg(int(in.Rd), cpu.BoolWord(env.ReadReg(int(in.Rs1)) < env.ReadReg(int(in.Rs2))))

		case isa.OpAddi:
			env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))+uint64(in.Imm))
		case isa.OpAndi:
			env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))&uint64(in.Imm))
		case isa.OpOri:
			env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))|uint64(in.Imm))
		case isa.OpXori:
			env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))^uint64(in.Imm))
		case isa.OpSlli:
			env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))<<(uint64(in.Imm)&63))
		case isa.OpSrli:
			env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))>>(uint64(in.Imm)&63))
		case isa.OpSrai:
			env.WriteReg(int(in.Rd), uint64(int64(env.ReadReg(int(in.Rs1)))>>(uint64(in.Imm)&63)))
		case isa.OpSlti:
			env.WriteReg(int(in.Rd), cpu.BoolWord(int64(env.ReadReg(int(in.Rs1))) < in.Imm))
		case isa.OpSltui:
			env.WriteReg(int(in.Rd), cpu.BoolWord(env.ReadReg(int(in.Rs1)) < uint64(in.Imm)))
		case isa.OpMuli:
			env.WriteReg(int(in.Rd), env.ReadReg(int(in.Rs1))*uint64(in.Imm))

		case isa.OpLdi:
			env.WriteReg(int(in.Rd), uint64(in.Imm))
		case isa.OpLdih:
			low := env.ReadReg(int(in.Rs1)) & 0xffffffff
			env.WriteReg(int(in.Rd), uint64(in.Imm)<<32|low)

		case isa.OpLd:
			env.WriteReg(int(in.Rd), env.ReadMem(env.ReadReg(int(in.Rs1))+uint64(in.Imm)))
		case isa.OpSt:
			addr := env.ReadReg(int(in.Rs1)) + uint64(in.Imm)
			env.WriteMem(addr, env.ReadReg(int(in.Rs2)))
			if fast && addr-base < ilen {
				// Self-modifying store: the table is stale from here on.
				fast = false
			}

		case isa.OpBeq:
			if env.ReadReg(int(in.Rs1)) == env.ReadReg(int(in.Rs2)) {
				next = uint64(in.Imm)
			}
		case isa.OpBne:
			if env.ReadReg(int(in.Rs1)) != env.ReadReg(int(in.Rs2)) {
				next = uint64(in.Imm)
			}
		case isa.OpBlt:
			if int64(env.ReadReg(int(in.Rs1))) < int64(env.ReadReg(int(in.Rs2))) {
				next = uint64(in.Imm)
			}
		case isa.OpBge:
			if int64(env.ReadReg(int(in.Rs1))) >= int64(env.ReadReg(int(in.Rs2))) {
				next = uint64(in.Imm)
			}
		case isa.OpBltu:
			if env.ReadReg(int(in.Rs1)) < env.ReadReg(int(in.Rs2)) {
				next = uint64(in.Imm)
			}
		case isa.OpBgeu:
			if env.ReadReg(int(in.Rs1)) >= env.ReadReg(int(in.Rs2)) {
				next = uint64(in.Imm)
			}

		case isa.OpJal:
			env.WriteReg(int(in.Rd), pc+1)
			next = uint64(in.Imm)
		case isa.OpJalr:
			target := env.ReadReg(int(in.Rs1)) + uint64(in.Imm)
			env.WriteReg(int(in.Rd), pc+1)
			next = target

		case isa.OpHalt:
			env.pc = pc // halt is a fixpoint
			ex.Steps++
			ex.Outcome = OutcomeHalted
			t.finish(env, ex)
			return
		}

		ex.Steps++
		pc = next
		if env.nonSpecHit {
			// The offending instruction's effects stay in the local buffers
			// and are discarded with the task; the machine performs the
			// access non-speculatively instead.
			env.pc = pc
			ex.Outcome = OutcomeNonSpec
			t.finish(env, ex)
			return
		}
		if t.HasEnd && pc == t.End {
			remaining--
			if remaining == 0 {
				env.pc = pc
				ex.Outcome = OutcomeReachedEnd
				t.finish(env, ex)
				return
			}
		}
	}
	env.pc = pc
	ex.Outcome = OutcomeOverflow
	t.finish(env, ex)
}

// dispatchFused tries to retire the fused group at pc in one dispatch and
// returns (next pc, true) when it does. It declines — leaving the caller on
// the single-step path — when no group starts at pc, the remaining task
// budget does not cover the whole group, or the task's end anchor falls in
// the group's interior (a slave must observe every end-anchor crossing; the
// static Anchors option keeps known anchors out of interiors, and this
// dynamic guard covers tasks whose end the builder did not know).
func (t *Task) dispatchFused(env *slaveEnv, ex *Exec, fusedTab []isa.FusedInst, pc, base, ilen, cap uint64, fast *bool) (uint64, bool) {
	f := &fusedTab[pc-base]
	n := uint64(f.N)
	if f.Kind == isa.FuseNone || ex.Steps+n > cap {
		return 0, false
	}
	if t.HasEnd {
		if d := t.End - pc; d > 0 && d < n {
			return 0, false
		}
	}

	switch f.Kind {
	case isa.FuseAluAlu:
		slaveAlu(env, &f.A)
		slaveAlu(env, &f.B)
		ex.Steps += 2
		return pc + 2, true

	case isa.FuseAluBr:
		slaveAlu(env, &f.A)
		ex.Steps += 2
		if slaveBr(env, &f.B) {
			return uint64(f.B.Imm), true
		}
		return pc + 2, true

	case isa.FuseAluAluBr:
		slaveAlu(env, &f.A)
		slaveAlu(env, &f.B)
		ex.Steps += 3
		if slaveBr(env, &f.C) {
			return uint64(f.C.Imm), true
		}
		return pc + 3, true

	case isa.FuseLdOp:
		env.WriteReg(int(f.A.Rd), env.ReadMem(env.ReadReg(int(f.A.Rs1))+uint64(f.A.Imm)))
		slaveAlu(env, &f.B)
		ex.Steps += 2
		return pc + 2, true

	case isa.FuseOpSt:
		slaveAlu(env, &f.A)
		addr := env.ReadReg(int(f.B.Rs1)) + uint64(f.B.Imm)
		env.WriteMem(addr, env.ReadReg(int(f.B.Rs2)))
		ex.Steps += 2
		if addr-base < ilen {
			*fast = false
		}
		return pc + 2, true

	case isa.FuseLdAluSt:
		env.WriteReg(int(f.A.Rd), env.ReadMem(env.ReadReg(int(f.A.Rs1))+uint64(f.A.Imm)))
		slaveAlu(env, &f.B)
		addr := env.ReadReg(int(f.C.Rs1)) + uint64(f.C.Imm)
		env.WriteMem(addr, env.ReadReg(int(f.C.Rs2)))
		ex.Steps += 3
		if addr-base < ilen {
			*fast = false
		}
		return pc + 3, true
	}
	return 0, false
}

// slaveAlu executes one straight-line register-writer component
// (OpAdd..OpLdih) against the slave environment. Semantics mirror the
// single-step switch in executeFast case for case.
func slaveAlu(env *slaveEnv, in *isa.Inst) {
	var v uint64
	switch in.Op {
	case isa.OpAdd:
		v = env.ReadReg(int(in.Rs1)) + env.ReadReg(int(in.Rs2))
	case isa.OpSub:
		v = env.ReadReg(int(in.Rs1)) - env.ReadReg(int(in.Rs2))
	case isa.OpMul:
		v = env.ReadReg(int(in.Rs1)) * env.ReadReg(int(in.Rs2))
	case isa.OpDiv:
		v = cpu.DivSigned(env.ReadReg(int(in.Rs1)), env.ReadReg(int(in.Rs2)))
	case isa.OpRem:
		v = cpu.RemSigned(env.ReadReg(int(in.Rs1)), env.ReadReg(int(in.Rs2)))
	case isa.OpAnd:
		v = env.ReadReg(int(in.Rs1)) & env.ReadReg(int(in.Rs2))
	case isa.OpOr:
		v = env.ReadReg(int(in.Rs1)) | env.ReadReg(int(in.Rs2))
	case isa.OpXor:
		v = env.ReadReg(int(in.Rs1)) ^ env.ReadReg(int(in.Rs2))
	case isa.OpSll:
		v = env.ReadReg(int(in.Rs1)) << (env.ReadReg(int(in.Rs2)) & 63)
	case isa.OpSrl:
		v = env.ReadReg(int(in.Rs1)) >> (env.ReadReg(int(in.Rs2)) & 63)
	case isa.OpSra:
		v = uint64(int64(env.ReadReg(int(in.Rs1))) >> (env.ReadReg(int(in.Rs2)) & 63))
	case isa.OpSlt:
		v = cpu.BoolWord(int64(env.ReadReg(int(in.Rs1))) < int64(env.ReadReg(int(in.Rs2))))
	case isa.OpSltu:
		v = cpu.BoolWord(env.ReadReg(int(in.Rs1)) < env.ReadReg(int(in.Rs2)))
	case isa.OpAddi:
		v = env.ReadReg(int(in.Rs1)) + uint64(in.Imm)
	case isa.OpAndi:
		v = env.ReadReg(int(in.Rs1)) & uint64(in.Imm)
	case isa.OpOri:
		v = env.ReadReg(int(in.Rs1)) | uint64(in.Imm)
	case isa.OpXori:
		v = env.ReadReg(int(in.Rs1)) ^ uint64(in.Imm)
	case isa.OpSlli:
		v = env.ReadReg(int(in.Rs1)) << (uint64(in.Imm) & 63)
	case isa.OpSrli:
		v = env.ReadReg(int(in.Rs1)) >> (uint64(in.Imm) & 63)
	case isa.OpSrai:
		v = uint64(int64(env.ReadReg(int(in.Rs1))) >> (uint64(in.Imm) & 63))
	case isa.OpSlti:
		v = cpu.BoolWord(int64(env.ReadReg(int(in.Rs1))) < in.Imm)
	case isa.OpSltui:
		v = cpu.BoolWord(env.ReadReg(int(in.Rs1)) < uint64(in.Imm))
	case isa.OpMuli:
		v = env.ReadReg(int(in.Rs1)) * uint64(in.Imm)
	case isa.OpLdi:
		v = uint64(in.Imm)
	case isa.OpLdih:
		v = uint64(in.Imm)<<32 | env.ReadReg(int(in.Rs1))&0xffffffff
	}
	env.WriteReg(int(in.Rd), v)
}

// slaveBr evaluates a conditional-branch component against the slave
// environment.
func slaveBr(env *slaveEnv, in *isa.Inst) bool {
	a, b := env.ReadReg(int(in.Rs1)), env.ReadReg(int(in.Rs2))
	switch in.Op {
	case isa.OpBeq:
		return a == b
	case isa.OpBne:
		return a != b
	case isa.OpBlt:
		return int64(a) < int64(b)
	case isa.OpBge:
		return int64(a) >= int64(b)
	case isa.OpBltu:
		return a < b
	default: // OpBgeu
		return a >= b
	}
}
