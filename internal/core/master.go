package core

import (
	"mssp/internal/cpu"
	"mssp/internal/isa"
	"mssp/internal/mem"
)

// master is the fast-path processor: it executes the distilled program over
// its own speculative memory image and produces checkpoints at fork points.
// Nothing the master does can touch architected state.
type master struct {
	alive bool

	regs [isa.NumRegs]uint64
	pc   uint64
	// memory is the master's speculative image: distilled code overlaid on
	// the architected memory as of the last reseed.
	memory *mem.Memory
	// log records every master store since the last reseed; snapshots of
	// its overlay become checkpoint memory diffs.
	log WriteLog

	// code is this reseed's predecoded-distilled-program runner (a nil-table
	// runner when the fast path is disabled). Reseed recreates it because it
	// also re-copies the distilled code into the master's memory image,
	// restoring the table's validity even if the previous master life
	// overwrote distilled code.
	code *cpu.Code

	clock float64
	// pol is this life's fork policy (retire.go).
	pol ForkPolicy
}

// masterEnv adapts the master to cpu.Env, teeing stores into the write log.
type masterEnv struct{ m *master }

func (e masterEnv) ReadReg(r int) uint64 {
	if r == isa.RegZero {
		return 0
	}
	return e.m.regs[r]
}

func (e masterEnv) WriteReg(r int, v uint64) {
	if r != isa.RegZero {
		e.m.regs[r] = v
	}
}

func (e masterEnv) ReadMem(addr uint64) uint64 { return e.m.memory.Read(addr) }

func (e masterEnv) WriteMem(addr, v uint64) {
	e.m.memory.Write(addr, v)
	e.m.log.Diff.Set(addr, v)
}

func (e masterEnv) Fetch(addr uint64) uint64 { return e.m.memory.Read(addr) }
func (e masterEnv) PC() uint64               { return e.m.pc }
func (e masterEnv) SetPC(pc uint64)          { e.m.pc = pc }

var _ cpu.Env = masterEnv{}

// masterStop says why runToFork returned without a fork.
type masterStop int

const (
	masterForked masterStop = iota
	masterHalted
	masterLost
)

// runToFork advances the master until it takes a fork, halts, or loses its
// way (fault, unmapped indirect target, or run-ahead cap). It returns the
// fork's anchor (an original-program PC) and the number of times that
// anchor was crossed since the last taken fork when stop == masterForked.
func (m *Machine) runToFork() (anchor uint64, count uint64, stop masterStop) {
	ms := &m.master
	env := masterEnv{ms}
	for {
		in, err := ms.code.Step(env)
		if err != nil {
			return m.lose()
		}
		ms.pol.Ran(1)
		ms.clock += m.cfg.MasterCPI

		switch in.Op {
		case isa.OpHalt:
			ms.alive = false
			m.r.Metrics.MasterHalts++
			return 0, 0, masterHalted
		case isa.OpFork:
			if c, ok := ms.pol.Fork(uint64(in.Imm)); ok {
				return uint64(in.Imm), c, masterForked
			}
		case isa.OpJalr:
			pc, ok := ms.pol.Jump(ms.pc)
			if !ok {
				return m.lose()
			}
			ms.pc = pc
		}

		if ms.pol.Lost() {
			return m.lose()
		}
	}
}

// lose kills a master that lost its way; recovery reseeds it.
func (m *Machine) lose() (uint64, uint64, masterStop) {
	m.master.alive = false
	m.r.Metrics.MasterLost++
	return 0, 0, masterLost
}

// reseed restarts the master from architected state at the current model
// time, the later of the last commit and the master's own clock; it is the
// machine's Engine.Reseed. The architected PC must
// translate into the distilled program; if it does not, the master stays
// dead and the main loop continues in fallback mode.
func (m *Machine) reseed() {
	arch := m.r.Arch
	dpc, ok := m.dist.OrigToDist[arch.PC]
	if !ok {
		m.master.alive = false
		return
	}
	ms := &m.master
	ms.clock = maxf(m.lastCommitEnd, ms.clock)
	ms.regs = arch.Regs
	ms.memory = arch.Mem.Snapshot()
	ms.memory.CopyWords(m.dist.Prog.Code.Base, m.dist.Prog.Code.Words)
	ms.log = NewWriteLog(m.cfg)
	ms.pc = dpc
	ms.code = cpu.NewCode(m.distCode)
	ms.alive = true
	ms.pol = m.r.NewLife(&m.r.Metrics)
}
