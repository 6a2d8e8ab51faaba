package job

// CountByType tallies the jobs per flexibility class.
func (w *Workload) CountByType() map[Type]int {
	out := map[Type]int{}
	for _, j := range w.Jobs {
		out[j.Type]++
	}
	return out
}
