// Package kernel is the seL4-like kernel model of the reproduction: it
// implements the time-protection mechanisms of §4.2 of the paper —
// flushing of core-local state on domain switches, padded constant-time
// switches, cache colouring of user memory, per-domain kernel clones,
// interrupt partitioning, and deterministic minimum-time IPC delivery —
// over the hardware platform of internal/hw.
//
// Threads execute synthetic programs under the direct-execution model:
// a Program is a resumable step function the event loop (System.Run)
// invokes inline, one operation per step, always advancing the logical
// CPU with the lowest cycle clock. Blocking operations park the
// thread's state struct, not a goroutine. This is the simulator's only
// execution semantics, and two runs of the same system with the same
// seeds are cycle-identical — which is what makes two-run comparisons
// meaningful on the concrete simulator.
package kernel

import (
	"fmt"

	"timeprot/internal/core"
	"timeprot/internal/hw"
	"timeprot/internal/hw/mem"
)

// ModelVersion is the kernel layer's registered model-version string,
// part of the experiment engine's fingerprint. Bump it whenever the
// kernel model's observable behaviour changes (scheduling, switch
// sequence, mechanism semantics, WCET bounds); cached sweep cells keyed
// under the old version then read as misses. Version 2 is the
// direct-execution program model, which equivalence tests showed
// trace-identical to version 1's goroutine execution before that path
// was removed.
const ModelVersion = "kernel/2"

// Virtual address space layout (page numbers). Each domain has its own
// address space; kernel mappings live in the high region of every space,
// like a conventional kernel window.
const (
	// UserCodeVPN is the first virtual page of a domain's code.
	UserCodeVPN = 0x400
	// UserHeapVPN is the first virtual page of a domain's heap.
	UserHeapVPN = 0x10000
	// KernelTextVPN is the first virtual page of the kernel image
	// (shared image or per-domain clone, §4.2).
	KernelTextVPN = 0xFFF00
	// KernelGlobalVPN is the virtual page of the kernel's global data,
	// which is accessed deterministically on every kernel entry
	// (§5.2 Case 2a).
	KernelGlobalVPN = 0xFFFF0
	// KernelDomainDataVPN is the virtual page of the per-domain kernel
	// data (thread state, scheduling bookkeeping for that domain).
	KernelDomainDataVPN = 0xFFFF8
)

// Kernel image geometry.
const (
	// KernelTextPages is the size of the kernel image in pages.
	KernelTextPages = 8
	// kernelEntryLines is the number of I-lines fetched by the common
	// entry stub.
	kernelEntryLines = 4
	// kernelExitLines is the number of I-lines fetched by the common
	// exit stub.
	kernelExitLines = 4
	// kernelTrapLines is the number of I-lines specific to each trap
	// vector.
	kernelTrapLines = 4
	// kernelGlobalDataLines is the number of global-data lines touched
	// per entry (deterministic, input-independent).
	kernelGlobalDataLines = 2
	// kernelDomainDataLines is the number of per-domain kernel data
	// lines touched per entry.
	kernelDomainDataLines = 2
)

// Trap numbers; each selects a distinct region of kernel text, so the
// kernel-text cache footprint depends on which traps a domain exercises —
// the kernel-image channel of experiment T5.
const (
	TrapTimer = iota
	TrapSend
	TrapRecv
	TrapStartIO
	TrapYield
	TrapIRQ
	TrapNull
	numTraps
)

// KernelImage is one kernel text mapping: the shared image, or a
// per-domain clone in domain-coloured memory (§4.2). The clone mechanism
// is policy-free: the clone is just another image whose frames were
// allocated under the domain's colour budget.
type KernelImage struct {
	// TextPFNs are the physical frames of the image's text.
	TextPFNs []uint64
	// Owner attributes the image's cache footprint: hw.KernelOwner for
	// the shared image, the domain ID for a clone.
	Owner hw.DomainID
}

// buildKernelImage allocates frames for a kernel image. For the shared
// image colors is nil (frames from anywhere — which is exactly why shared
// kernel text collides with user partitions in the LLC); for a clone the
// domain's colour set is used.
func buildKernelImage(alloc *mem.Allocator, owner hw.DomainID, colors mem.ColorSet) (*KernelImage, error) {
	pfns, err := alloc.AllocN(owner, colors, KernelTextPages)
	if err != nil {
		return nil, fmt.Errorf("kernel: allocating image for %d: %w", owner, err)
	}
	return &KernelImage{TextPFNs: pfns, Owner: owner}, nil
}

// kernelTextVA returns the virtual address of line number line within the
// kernel image.
func kernelTextVA(line int) hw.Addr {
	return hw.Addr(KernelTextVPN<<hw.PageBits) + hw.Addr(line*hw.LineSize)
}

// kernelGlobalVA returns the virtual address of line number line within
// the kernel global-data page.
func kernelGlobalVA(line int) hw.Addr {
	return hw.Addr(KernelGlobalVPN<<hw.PageBits) + hw.Addr(line*hw.LineSize)
}

// kernelDomainDataVA returns the virtual address of line number line
// within the per-domain kernel data page.
func kernelDomainDataVA(line int) hw.Addr {
	return hw.Addr(KernelDomainDataVPN<<hw.PageBits) + hw.Addr(line*hw.LineSize)
}

// trapTextLine returns the first text line of a trap vector's code.
func trapTextLine(trap int) int {
	return kernelEntryLines + kernelExitLines + trap*kernelTrapLines
}

// maxKernelTextLine is used to validate that the image is large enough.
func maxKernelTextLine() int { return trapTextLine(numTraps) }

// SyscallPathLines returns the kernel-image line numbers fetched by a
// null syscall: the entry stub, the exit stub, and the TrapNull vector.
// The kernel's text layout is public knowledge (Kerckhoffs), so attack
// code may target exactly these lines — the kernel-image channel of
// §4.2 needs nothing more.
func SyscallPathLines() []int {
	var lines []int
	for i := 0; i < kernelEntryLines+kernelExitLines; i++ {
		lines = append(lines, i)
	}
	base := trapTextLine(TrapNull)
	for i := 0; i < kernelTrapLines; i++ {
		lines = append(lines, base+i)
	}
	return lines
}

func init() {
	if maxKernelTextLine() > KernelTextPages*hw.LinesPerPage {
		panic("kernel: trap vectors exceed kernel image size")
	}
}

// EndpointSpec declares a synchronous IPC endpoint.
type EndpointSpec struct {
	// ID is the endpoint's number, referenced by Machine.Send/Recv.
	ID int
	// MinDelivery, when nonzero and core.Config.MinDeliveryIPC is
	// armed, makes a cross-domain message visible to the receiver no
	// earlier than the sender's slice start plus MinDelivery cycles
	// (§3.2, the Cock et al. model). The system designer must choose
	// MinDelivery at or above the sender's worst-case execution time;
	// the kernel records an overrun event if the threshold is missed.
	MinDelivery uint64
}

// validateSpecs checks domain specs against the platform and protection
// configuration, including pairwise colour disjointness when colouring is
// armed (the partitioning policy).
func validateSpecs(cfg core.Config, specs []core.DomainSpec, totalColors, irqLines int) error {
	if len(specs) == 0 {
		return fmt.Errorf("kernel: no domains configured")
	}
	seenIRQ := make(map[int]string)
	for i, d := range specs {
		if err := d.Validate(cfg, totalColors); err != nil {
			return err
		}
		for _, l := range d.IRQLines {
			if l < 0 || l >= irqLines {
				return fmt.Errorf("kernel: domain %s: IRQ line %d out of range [0,%d)", d.Name, l, irqLines)
			}
			if prev, dup := seenIRQ[l]; dup {
				return fmt.Errorf("kernel: IRQ line %d claimed by both %s and %s", l, prev, d.Name)
			}
			seenIRQ[l] = d.Name
		}
		if cfg.ColorUserMemory {
			for j := 0; j < i; j++ {
				if specs[j].Colors.Intersects(d.Colors) {
					return fmt.Errorf("kernel: domains %s and %s have overlapping colours", specs[j].Name, d.Name)
				}
			}
		}
	}
	return nil
}
