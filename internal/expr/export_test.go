package expr

// MustCompile is Compile for expressions known correct at build time.
func MustCompile(src string) *Expr {
	e, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return e
}

// Vars returns the sorted free variables of the expression. The slice is
// the caller's to keep.
func (e *Expr) Vars() []string {
	return append(make([]string, 0, len(e.vars)), e.vars...)
}
