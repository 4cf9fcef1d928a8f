package wasm

import (
	"errors"
	"fmt"
)

// Instantiation errors.
var (
	ErrNoSuchExport   = errors.New("wasm: no such export")
	ErrImportMissing  = errors.New("wasm: unresolved import")
	ErrImportType     = errors.New("wasm: import signature mismatch")
	ErrDataOutOfRange = errors.New("wasm: data segment out of range")
)

// HostContext is passed to host functions, giving them mediated access to
// the calling instance (in particular its linear memory) — the channel the
// Roadrunner shim and the WASI layer use to reach guest data.
type HostContext struct {
	Instance *Instance
}

// Memory returns the calling instance's linear memory.
func (c *HostContext) Memory() *Memory { return c.Instance.Memory() }

// GoFunc is the Go implementation of a host function. Raw 64-bit values
// follow the interpreter's representation (i32 in the low bits, floats as
// IEEE bits).
type GoFunc func(ctx *HostContext, args []uint64) ([]uint64, error)

// HostFunc couples a Go implementation with its WebAssembly signature.
type HostFunc struct {
	Type FuncType
	Fn   GoFunc
}

// Imports resolves module/name import pairs to host functions.
type Imports map[string]map[string]HostFunc

// Add registers a host function, allocating nested maps as needed.
func (im Imports) Add(module, name string, f HostFunc) {
	mod, ok := im[module]
	if !ok {
		mod = make(map[string]HostFunc)
		im[module] = mod
	}
	mod[name] = f
}

// function is one callable unit: either a Wasm body, compiled with its
// module and shared with its other instances, or a host function.
type function struct {
	typ  FuncType
	cf   *compiledFunc
	host *HostFunc
}

// Config tunes instantiation.
type Config struct {
	// MaxCallDepth bounds recursion (default 512 frames).
	MaxCallDepth int
	// MemoryResizeHook observes linear-memory allocation deltas (bytes).
	MemoryResizeHook func(delta int64)
}

// Instance is an instantiated module: the paper's "Wasm VM" sandbox holding
// linear memory, globals and the function table.
//
// An Instance executes one call tree at a time and is not safe for
// concurrent Call use — callers serialize, as the shim's VM lock does. This
// is what lets the interpreter recycle its per-depth frames (see
// Instance.frame) and run warm calls without allocating. Instances of one
// module share its compiled code and nothing else.
type Instance struct {
	module   *Module
	mem      *Memory
	globals  []uint64
	funcs    []function
	table    []int32 // function indices; -1 = uninitialized element
	exports  map[string]Export
	maxDepth int
	frames   [][]uint64  // recycled interpreter frames, indexed by depth
	hostCtx  HostContext // reused context for host-function calls
}

// Instantiate links a decoded module against host imports, initializes
// globals, table and data segments, and runs the start function. The
// function bodies were compiled by Decode.
func Instantiate(m *Module, imports Imports, cfg *Config) (*Instance, error) {
	if cfg == nil {
		cfg = &Config{}
	}
	maxDepth := cfg.MaxCallDepth
	if maxDepth <= 0 {
		maxDepth = 512
	}
	inst := &Instance{module: m, maxDepth: maxDepth, exports: make(map[string]Export, len(m.Exports))}
	inst.hostCtx = HostContext{Instance: inst}

	// Resolve imports (functions only; memory/global/table imports are not
	// needed by any module in this repo and are rejected explicitly).
	for _, imp := range m.Imports {
		switch imp.Kind {
		case ExternFunc:
			hf, ok := imports[imp.Module][imp.Name]
			if !ok {
				return nil, fmt.Errorf("%s.%s: %w", imp.Module, imp.Name, ErrImportMissing)
			}
			want := m.Types[imp.TypeIndex]
			if !hf.Type.Equal(want) {
				return nil, fmt.Errorf("%s.%s: have %v want %v: %w", imp.Module, imp.Name, hf.Type, want, ErrImportType)
			}
			f := hf
			inst.funcs = append(inst.funcs, function{typ: want, host: &f})
		default:
			return nil, fmt.Errorf("import %s.%s kind %d: %w", imp.Module, imp.Name, imp.Kind, ErrUnsupported)
		}
	}

	if len(m.code) != len(m.Codes) {
		return nil, fmt.Errorf("module was not produced by Decode: %w", ErrMalformed)
	}
	for i, cf := range m.code {
		inst.funcs = append(inst.funcs, function{typ: m.Types[m.FuncTypes[i]], cf: cf})
	}

	// Memory + data segments.
	if m.Memory != nil {
		inst.mem = NewMemory(*m.Memory)
		if cfg.MemoryResizeHook != nil {
			inst.mem.SetResizeHook(cfg.MemoryResizeHook)
		}
		for i, seg := range m.Data {
			end := uint64(seg.Offset) + uint64(len(seg.Init))
			if end > uint64(inst.mem.Size()) {
				return nil, fmt.Errorf("data segment %d [%d,+%d): %w", i, seg.Offset, len(seg.Init), ErrDataOutOfRange)
			}
			copy(inst.mem.data[seg.Offset:], seg.Init)
		}
	} else if len(m.Data) > 0 {
		return nil, fmt.Errorf("data segments without memory: %w", ErrMalformed)
	}

	// Globals.
	inst.globals = make([]uint64, len(m.Globals))
	for i, g := range m.Globals {
		inst.globals[i] = g.Init
	}

	// Table + element segments.
	if m.Table != nil {
		inst.table = make([]int32, m.Table.Min)
		for i := range inst.table {
			inst.table[i] = -1
		}
		for i, seg := range m.Elems {
			end := uint64(seg.Offset) + uint64(len(seg.FuncIdxs))
			if end > uint64(len(inst.table)) {
				return nil, fmt.Errorf("elem segment %d: %w", i, ErrDataOutOfRange)
			}
			for j, fi := range seg.FuncIdxs {
				inst.table[int(seg.Offset)+j] = int32(fi)
			}
		}
	}

	for _, e := range m.Exports {
		inst.exports[e.Name] = e
	}

	if m.Start != nil {
		if _, err := inst.call(*m.Start, nil); err != nil {
			return nil, fmt.Errorf("start function: %w", err)
		}
	}
	return inst, nil
}

// funcName names function fi in a trap's call chain.
func (inst *Instance) funcName(fi uint32) string {
	if int(fi) >= inst.module.NumImportedFuncs {
		return fmt.Sprintf("func[%d]", fi)
	}
	for _, imp := range inst.module.Imports {
		if imp.Kind != ExternFunc {
			continue
		}
		if fi == 0 {
			return imp.Module + "." + imp.Name
		}
		fi--
	}
	return "?"
}

// Memory returns the instance's linear memory (nil when the module declares
// none).
func (inst *Instance) Memory() *Memory { return inst.mem }

// Module returns the underlying decoded module.
func (inst *Instance) Module() *Module { return inst.module }

// Func resolves an exported function to a reusable handle.
func (inst *Instance) Func(name string) (*Func, error) {
	e, ok := inst.exports[name]
	if !ok || e.Kind != ExternFunc {
		return nil, fmt.Errorf("function %q: %w", name, ErrNoSuchExport)
	}
	return &Func{inst: inst, idx: e.Index, typ: inst.funcs[e.Index].typ, name: name}, nil
}

// Call invokes an exported function by name.
func (inst *Instance) Call(name string, args ...uint64) ([]uint64, error) {
	f, err := inst.Func(name)
	if err != nil {
		return nil, err
	}
	return f.Call(args...)
}

// GlobalValue returns the raw bits of an exported global.
func (inst *Instance) GlobalValue(name string) (uint64, error) {
	e, ok := inst.exports[name]
	if !ok || e.Kind != ExternGlobal {
		return 0, fmt.Errorf("global %q: %w", name, ErrNoSuchExport)
	}
	if int(e.Index) >= len(inst.globals) {
		return 0, fmt.Errorf("global %q index %d: %w", name, e.Index, errIndexOutOfRange)
	}
	return inst.globals[e.Index], nil
}

// Exports lists exported names by kind for diagnostics (cmd/wasmrun).
func (inst *Instance) Exports() []Export {
	out := make([]Export, 0, len(inst.exports))
	for _, e := range inst.module.Exports {
		out = append(out, e)
	}
	return out
}

// Func is a resolved export handle.
type Func struct {
	inst *Instance
	idx  uint32
	typ  FuncType
	name string
}

// Type returns the function signature.
func (f *Func) Type() FuncType { return f.typ }

// Name returns the export name the handle was resolved from.
func (f *Func) Name() string { return f.name }

// Call invokes the function with raw 64-bit arguments.
func (f *Func) Call(args ...uint64) ([]uint64, error) {
	if len(args) != len(f.typ.Params) {
		return nil, fmt.Errorf("wasm: call %q with %d args, want %d", f.name, len(args), len(f.typ.Params))
	}
	return f.inst.call(f.idx, args)
}
