// Package machine boots the system the paper describes: a PCM module with
// its failure buffer and clustering hardware (§3.1), the OS that owns the
// failure table and delivers failure up-calls (§3.2), and the failure-aware
// managed runtime on top (§3.3–§4). The layers only cooperate when built in
// one order on one clock, and Boot is the only place that order is written
// down (DESIGN §16): every experiment, campaign, facade runtime and CLI
// describes its stack as a Spec and gets a Machine back.
package machine

import (
	"fmt"

	"wearmem/internal/failmap"
	"wearmem/internal/kernel"
	"wearmem/internal/pcm"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
	"wearmem/internal/vm"
)

// Spec describes one machine. Everything a caller may choose is a value
// here; everything that is wiring (the shared clock, which device the
// kernel owns, which kernel the runtime runs on, the probe trampoline) is
// Boot's.
type Spec struct {
	// Kernel sizes the PCM pool and carries the static failure map and the
	// policy names; Boot fills Device, Clock and Probe.
	Kernel kernel.Config
	// VM parametrizes the runtime; Boot fills Kernel, Clock and Probe.
	VM vm.Config

	// Device, when set, backs the pool with a fresh wearing module; a zero
	// Size means exactly the pool. Image, when set, restores the module
	// from a durable image instead (Device is then ignored) and runs
	// Kernel.Recover, admitting at least MinFrames usable frames, before
	// the runtime boots. Neither leaves the pool as plain memory.
	Device    *pcm.Config
	Image     *pcm.DeviceImage
	MinFrames int

	// Probe threads one late-bound hook through the device, the kernel and
	// the runtime; install it with SetProbe once the machine exists. An
	// unprobed machine pays one nil check per instrumented site and, unless
	// it writes through, keeps no newborn root (vm.New).
	Probe bool

	// OnDevice runs once the device exists and before the kernel scans it:
	// the seam for prior-life wear.
	OnDevice func(*pcm.Device)
}

// Machine is a booted stack. Device is nil for a plain-memory pool;
// Recovery is set only when the device came from an image.
type Machine struct {
	Clock    *stats.Clock
	Device   *pcm.Device
	Kernel   *kernel.Kernel
	VM       *vm.VM
	Recovery *kernel.RecoverStats

	hook probe.Hook
}

// Boot assembles clock → device → kernel → recovery → runtime. Only an
// image boot can fail. An image that does not restore returns a nil
// machine. A recovery that fails (kernel.ErrDeviceWornOut, test with
// errors.Is) returns the error together with the machine as far as it got —
// Recovery populated, VM nil — because what recovery found is the result a
// restart study reports.
func Boot(s Spec) (*Machine, error) {
	m := &Machine{Clock: stats.NewClock(stats.DefaultCosts())}
	var hook probe.Hook
	if s.Probe {
		hook = m.fire
	}
	switch {
	case s.Image != nil:
		dev, err := pcm.NewDeviceFromImage(s.Image, m.Clock, hook)
		if err != nil {
			return nil, fmt.Errorf("restoring device image: %w", err)
		}
		m.Device = dev
	case s.Device != nil:
		dc := *s.Device
		if dc.Size == 0 {
			dc.Size = s.Kernel.PCMPages * failmap.PageSize
		}
		if s.Probe {
			dc.Probe = hook
		}
		m.Device = pcm.NewDevice(dc, m.Clock)
	}
	if s.OnDevice != nil {
		s.OnDevice(m.Device)
	}

	kc := s.Kernel
	kc.Device, kc.Clock, kc.Probe = m.Device, m.Clock, hook
	m.Kernel = kernel.New(kc)
	if s.Image != nil {
		st, err := m.Kernel.Recover(kernel.RecoverOptions{MinFrames: s.MinFrames})
		m.Recovery = &st
		if err != nil {
			return m, fmt.Errorf("device-state recovery: %w", err)
		}
	}

	vc := s.VM
	vc.Kernel, vc.Clock, vc.Probe = m.Kernel, m.Clock, hook
	m.VM = vm.New(vc)
	return m, nil
}

// ThreadedLanes is the trace-lane count of a stack that runs one workload on
// either engine (the facade, the policy zoo, torture): one lane per mutator
// on the threaded engine, the serial trace on the baton. The runs that split
// a benchmark across mutators (harness.execute, the restart study) use one
// lane per mutator on both engines; DESIGN §16 says why the two rules are
// not one.
func ThreadedLanes(threaded bool, mutators int) int {
	if threaded {
		return mutators
	}
	return 0
}

// fire is the trampoline the layers hold: the hook's consumers (an
// injector, a power-cut trigger) need the device and the kernel, which
// need their probe at construction.
func (m *Machine) fire(p probe.Point, addr uint64) {
	if m.hook != nil {
		m.hook(p, addr)
	}
}

// SetProbe installs the hook of a machine booted with Spec.Probe. Set it
// before mutators run; the layers read it without synchronisation.
func (m *Machine) SetProbe(h probe.Hook) { m.hook = h }

// Close releases the runtime's address space for the next machine to adopt
// (vm.VM.Close). Call it once nothing will read the heap again. Closing a
// machine whose boot stopped at recovery, or closing twice, is harmless.
func (m *Machine) Close() {
	if m.VM != nil {
		m.VM.Close()
	}
}
