package workload

import (
	"fmt"
	"sync"
)

// The extras registry holds named scenario profiles (workloads defined
// outside this package, such as the KV server) so the harness can resolve
// them through ByName exactly like the built-in suite. Constructors
// return a fresh Profile per call — run state like IterHook and Latency
// is mutated per execution, so instances must never be shared.
var (
	extraMu sync.Mutex
	extras  = map[string]func() *Profile{}
)

// RegisterExtra adds a named profile constructor to the registry. The
// name must not collide with the built-in suite or an earlier extra;
// re-registering the identical name panics so knob-encoded scenario names
// stay unambiguous. The constructor's profile must validate.
func RegisterExtra(name string, mk func() *Profile) {
	if name == "" || mk == nil {
		panic("workload: RegisterExtra needs a name and a constructor")
	}
	for _, p := range SuiteWithBuggyLusearch() {
		if p.Name == name {
			panic(fmt.Sprintf("workload: extra %q collides with the built-in suite", name))
		}
	}
	p := mk()
	if p == nil || p.Name != name {
		panic(fmt.Sprintf("workload: extra %q constructor returned a mismatched profile", name))
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	extraMu.Lock()
	defer extraMu.Unlock()
	if _, dup := extras[name]; dup {
		panic(fmt.Sprintf("workload: extra %q registered twice", name))
	}
	extras[name] = mk
}

// byExtraName returns a fresh instance of the named extra, or nil.
func byExtraName(name string) *Profile {
	extraMu.Lock()
	mk := extras[name]
	extraMu.Unlock()
	if mk == nil {
		return nil
	}
	return mk()
}
