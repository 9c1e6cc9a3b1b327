package storage

// SetDiskHook installs (nil: removes) the disk-operation observer for
// tests in package storage_test, which cannot reach diskHook directly.
func SetDiskHook(f func(op, name string)) { diskHook = f }
