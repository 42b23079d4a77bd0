// The host-speed probe: a fixed reference kernel timed next to every timed
// stretch of the end-to-end run, so that its timings can be read at one
// reference speed of the host.
//
// A shared host runs the same code up to 1.5 times slower from one tenth
// of a second to the next and for minutes at a time (README, "Run-to-run
// spread"); a slow phase slows the kernel and the ops next to it alike.
// The kernel is the benchmark's own code and calls no library function, so
// no change to the library changes its work; scaling by its time cancels
// much of the host's speed and none of the program's.
#pragma once

namespace perfbench {

/// The kernel's nominal time, in ms: a time t measured next to a kernel
/// time k is reported as t · kReferenceKernelMs / k. It is roughly the
/// kernel's median time on the host the spread was measured on (README),
/// so the scaled times stay near the wall times seen there.
inline constexpr double kReferenceKernelMs = 0.3;

/// The reference kernel's time now, on the calling thread's CPU: the
/// faster of two runs, in ms of the thread's CPU time (so that a probe the
/// host deschedules still reads the speed of the CPU it ran on).
double probe_kernel_ms();

/// The factor that scales a time measured between two probes (kernel
/// times `before_ms` and `after_ms`) to the reference speed.
double host_scale(double before_ms, double after_ms);

}  // namespace perfbench
