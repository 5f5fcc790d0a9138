package pcm

// Equipped reports whether SetConcurrent has given the device its lock. It
// exists for tests: code has no business branching on it.
func (d *Device) Equipped() bool { return d.mu.Shared() }
