package sim

// CutEntries is the number of CS entries a crash cut short: entries in the
// record log that must yield no record.
func CutEntries(c *Cluster) int { return len(c.cut) }
