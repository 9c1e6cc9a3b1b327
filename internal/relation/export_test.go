package relation

// twinExecs returns two fresh Execs for one input: auto lets the data
// pick every path, generic runs every operator on its generic path
// (SetGeneric), the twin each specialization is checked against.
func twinExecs() (auto, generic *Exec) {
	generic = NewExec()
	generic.SetGeneric(true)
	return NewExec(), generic
}
