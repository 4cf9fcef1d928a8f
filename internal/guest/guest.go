// Package guest authors the WebAssembly guest modules used throughout the
// repo: the Roadrunner data-access ABI of Table 1 (bump allocator, output
// registration, locate_memory_region), payload producer/consumer functions,
// an in-sandbox implementation of the internal/serial wire format (the
// serialization cost the WasmEdge baseline pays, §2.2), an image-resize
// kernel (Fig. 2a), and WASI socket helpers for the baseline data path.
//
// The modules are emitted as real .wasm binaries by internal/wasmbuild and
// executed by internal/wasm — standing in for the Rust-compiled guests of
// the paper's evaluation (§6.2).
package guest

import (
	"encoding/binary"
	"math/bits"
	"sync"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/abi"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasi"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasmbuild"
)

// Guest export names beyond the core ABI (Table 1).
const (
	ExportSetOutput     = "set_output"
	ExportSendOutput    = "send_output"
	ExportProduce       = "produce"
	ExportConsume       = "consume"
	ExportSerialize     = "serialize"
	ExportDeserialize   = "deserialize"
	ExportResizeHalf    = "resize_half"
	ExportHello         = "hello"
	ExportSockSendAll   = "sock_send_all"
	ExportSockRecvExact = "sock_recv_exact"
	ExportFillFromFile  = "fill_from_file"
)

// Deterministic payload-generation constants, shared with the Go reference
// implementations below so host code can verify guest-produced data.
const (
	produceSeed = 0x243F6A8885A308D3
	lcgMul      = 6364136223846793005
	lcgAdd      = 1442695040888963407
	fnvOffset   = 0xcbf29ce484222325
	fnvPrime    = 0x100000001b3
)

// heapBase is where the guest bump allocator starts; the region below it is
// reserved scratch.
const heapBase = 1024

var moduleOnce = sync.OnceValue(buildModule)

// Module returns the canonical guest module binary. The binary is immutable;
// callers must not modify it.
func Module() []byte { return moduleOnce() }

// buildModule assembles the guest. See the package comment for the export
// inventory.
func buildModule() []byte {
	b := wasmbuild.New()
	i32, i64 := wasm.I32, wasm.I64

	// Imports (declared before any function definition).
	sendToHost := b.ImportFunc(abi.ImportModule, abi.ImportSendToHost, []wasm.ValType{i32, i32}, nil)
	sockSend := b.ImportFunc(wasi.ModuleName, "sock_send", []wasm.ValType{i32, i32, i32}, []wasm.ValType{i32})
	sockRecv := b.ImportFunc(wasi.ModuleName, "sock_recv", []wasm.ValType{i32, i32, i32}, []wasm.ValType{i32})
	fdRead := b.ImportFunc(wasi.ModuleName, "fd_read", []wasm.ValType{i32, i32, i32}, []wasm.ValType{i32})

	b.Memory(2, 65536, abi.ExportMemory)
	heap := b.Global("", i32, true, heapBase)
	outPtr := b.Global("", i32, true, 0)
	outLen := b.Global("", i32, true, 0)

	// ---- pack(ptr, len) -> i64 : ptr<<32 | len --------------------------------
	pack := b.NewFunc("", []wasm.ValType{i32, i32}, []wasm.ValType{i64})
	pack.LocalGet(0).I64ExtendI32U().I64Const(32).I64Shl().
		LocalGet(1).I64ExtendI32U().I64Or()

	// ---- allocate_memory(len) -> ptr ------------------------------------------
	alloc := b.NewFunc(abi.ExportAllocate, []wasm.ValType{i32}, []wasm.ValType{i32})
	{
		ptr := alloc.AddLocal(i32)
		need := alloc.AddLocal(i32)
		// len = (len + 7) &^ 7
		alloc.LocalGet(0).I32Const(7).I32Add().I32Const(-8).I32And().LocalSet(0)
		// ptr = heap; heap = ptr + len
		alloc.GlobalGet(heap).LocalSet(ptr)
		alloc.LocalGet(ptr).LocalGet(0).I32Add().GlobalSet(heap)
		// need = (heap + 65535) >> 16
		alloc.GlobalGet(heap).I32Const(65535).I32Add().I32Const(16).I32ShrU().LocalSet(need)
		// if need > memory.size { if memory.grow(need - size) == -1 { unreachable } }
		alloc.LocalGet(need).MemorySize().I32GtU().
			If().
			LocalGet(need).MemorySize().I32Sub().MemoryGrow().
			I32Const(-1).I32Eq().
			If().Unreachable().End().
			End()
		alloc.LocalGet(ptr)
	}

	// ---- deallocate_memory(addr) ----------------------------------------------
	// Bump-allocator LIFO release: freeing an address rewinds the heap to it
	// when it is the most recent live allocation boundary.
	free := b.NewFunc(abi.ExportDeallocate, []wasm.ValType{i32}, nil)
	free.LocalGet(0).I32Const(heapBase).I32GeU().
		If().
		LocalGet(0).GlobalGet(heap).I32LtU().
		If().LocalGet(0).GlobalSet(heap).End().
		End()
	_ = free

	// ---- set_output(ptr, len) ---------------------------------------------------
	setOut := b.NewFunc(ExportSetOutput, []wasm.ValType{i32, i32}, nil)
	setOut.LocalGet(0).GlobalSet(outPtr).LocalGet(1).GlobalSet(outLen)

	// ---- locate_memory_region() -> i64 -----------------------------------------
	locate := b.NewFunc(abi.ExportLocate, nil, []wasm.ValType{i64})
	locate.GlobalGet(outPtr).GlobalGet(outLen).Call(pack.Ref())

	// ---- send_output() : send_to_host(out_ptr, out_len) -------------------------
	sendOut := b.NewFunc(ExportSendOutput, nil, nil)
	sendOut.GlobalGet(outPtr).GlobalGet(outLen).Call(sendToHost)

	// ---- hello() -> i32 ----------------------------------------------------------
	hello := b.NewFunc(ExportHello, nil, []wasm.ValType{i32})
	hello.I32Const(42)
	_ = hello

	// ---- produce(n) -> packed(ptr, n) --------------------------------------------
	// Fills n bytes with a deterministic LCG pattern (8 bytes per iteration,
	// per-byte tail) and registers the buffer as the function output.
	produce := b.NewFunc(ExportProduce, []wasm.ValType{i32}, []wasm.ValType{i64})
	{
		ptr := produce.AddLocal(i32)
		s := produce.AddLocal(i32)
		end := produce.AddLocal(i32)
		seed := produce.AddLocal(i64)
		produce.LocalGet(0).Call(alloc.Ref()).LocalSet(ptr)
		produce.LocalGet(ptr).LocalSet(s)
		produce.LocalGet(ptr).LocalGet(0).I32Add().LocalSet(end)
		produce.I64Const(produceSeed).LocalSet(seed)
		// Word loop.
		produce.Block().Loop().
			LocalGet(s).I32Const(8).I32Add().LocalGet(end).I32GtU().BrIf(1).
			LocalGet(s).LocalGet(seed).I64Store(0).
			LocalGet(seed).I64Const(lcgMul).I64Mul().I64Const(lcgAdd).I64Add().LocalSet(seed).
			LocalGet(s).I32Const(8).I32Add().LocalSet(s).
			Br(0).
			End().End()
		// Byte tail.
		produce.Block().Loop().
			LocalGet(s).LocalGet(end).I32GeU().BrIf(1).
			LocalGet(s).LocalGet(seed).I32WrapI64().I32Store8(0).
			LocalGet(seed).I64Const(8).I64Rotl().LocalSet(seed).
			LocalGet(s).I32Const(1).I32Add().LocalSet(s).
			Br(0).
			End().End()
		produce.LocalGet(ptr).LocalGet(0).Call(setOut.Ref())
		produce.LocalGet(ptr).LocalGet(0).Call(pack.Ref())
	}

	// ---- consume(ptr, len) -> i64 checksum -----------------------------------------
	consume := b.NewFunc(ExportConsume, []wasm.ValType{i32, i32}, []wasm.ValType{i64})
	{
		s := consume.AddLocal(i32)
		end8 := consume.AddLocal(i32)
		end := consume.AddLocal(i32)
		h := consume.AddLocal(i64)
		consume.I64Const(-3750763034362895579).LocalSet(h) // fnvOffset as signed bits
		consume.LocalGet(0).LocalSet(s)
		consume.LocalGet(0).LocalGet(1).I32Add().LocalSet(end)
		consume.LocalGet(0).LocalGet(1).I32Const(-8).I32And().I32Add().LocalSet(end8)
		// Word loop.
		consume.Block().Loop().
			LocalGet(s).LocalGet(end8).I32GeU().BrIf(1).
			LocalGet(h).LocalGet(s).I64Load(0).I64Xor().I64Const(fnvPrime).I64Mul().LocalSet(h).
			LocalGet(s).I32Const(8).I32Add().LocalSet(s).
			Br(0).
			End().End()
		// Byte tail.
		consume.Block().Loop().
			LocalGet(s).LocalGet(end).I32GeU().BrIf(1).
			LocalGet(h).LocalGet(s).I64Load8U(0).I64Xor().I64Const(fnvPrime).I64Mul().LocalSet(h).
			LocalGet(s).I32Const(1).I32Add().LocalSet(s).
			Br(0).
			End().End()
		consume.LocalGet(h)
	}

	// ---- read_memory_wasm(addr, len) -> i64 (Table 1: guest-side read) -------------
	readWasm := b.NewFunc(abi.ExportReadWasm, []wasm.ValType{i32, i32}, []wasm.ValType{i64})
	readWasm.LocalGet(0).LocalGet(1).Call(consume.Ref())

	// ---- serialize(src, len) -> packed(dst, encodedLen) ------------------------------
	// In-sandbox implementation of the internal/serial format for a single
	// record with key "payload". The per-byte escape loop is the genuine
	// serialization cost the paper measures inside Wasm (§2.2: up to 60% of
	// execution time).
	serialize := b.NewFunc(ExportSerialize, []wasm.ValType{i32, i32}, []wasm.ValType{i64})
	{
		dst := serialize.AddLocal(i32)
		d := serialize.AddLocal(i32)
		s := serialize.AddLocal(i32)
		end := serialize.AddLocal(i32)
		bb := serialize.AddLocal(i32)
		// dst = alloc(2*len + 24)
		serialize.LocalGet(1).I32Const(1).I32Shl().I32Const(24).I32Add().Call(alloc.Ref()).LocalSet(dst)
		serialize.LocalGet(dst).LocalSet(d)
		// header: magic "RRS1", count=1, keyLen=7, key "payload"
		serialize.LocalGet(d).I32Const(0x31535252).I32Store(0)
		serialize.LocalGet(d).I32Const(1).I32Store(4)
		serialize.LocalGet(d).I32Const(7).I32Store(8)
		for i, c := range []byte("payload") {
			serialize.LocalGet(d).I32Const(int32(c)).I32Store8(uint32(12 + i))
		}
		serialize.LocalGet(d).I32Const(19).I32Add().LocalSet(d)
		serialize.LocalGet(0).LocalSet(s)
		serialize.LocalGet(0).LocalGet(1).I32Add().LocalSet(end)
		// Escape loop.
		serialize.Block().Loop().
			LocalGet(s).LocalGet(end).I32GeU().BrIf(1).
			LocalGet(s).I32Load8U(0).LocalSet(bb).
			LocalGet(bb).I32Const(2).I32LtU().
			If().
			LocalGet(d).I32Const(1).I32Store8(0).
			LocalGet(d).LocalGet(bb).I32Const(2).I32Add().I32Store8(1).
			LocalGet(d).I32Const(2).I32Add().LocalSet(d).
			Else().
			LocalGet(d).LocalGet(bb).I32Store8(0).
			LocalGet(d).I32Const(1).I32Add().LocalSet(d).
			End().
			LocalGet(s).I32Const(1).I32Add().LocalSet(s).
			Br(0).
			End().End()
		// Sentinel.
		serialize.LocalGet(d).I32Const(0).I32Store8(0)
		serialize.LocalGet(d).I32Const(1).I32Add().LocalSet(d)
		serialize.LocalGet(dst).LocalGet(d).LocalGet(dst).I32Sub().Call(setOut.Ref())
		serialize.LocalGet(dst).LocalGet(d).LocalGet(dst).I32Sub().Call(pack.Ref())
	}

	// ---- deserialize(src, len) -> packed(dst, decodedLen) ------------------------------
	deserialize := b.NewFunc(ExportDeserialize, []wasm.ValType{i32, i32}, []wasm.ValType{i64})
	{
		s := deserialize.AddLocal(i32)
		end := deserialize.AddLocal(i32)
		dst := deserialize.AddLocal(i32)
		d := deserialize.AddLocal(i32)
		bb := deserialize.AddLocal(i32)
		// Header checks: length, magic, count.
		deserialize.LocalGet(1).I32Const(13).I32LtU().If().Unreachable().End()
		deserialize.LocalGet(0).I32Load(0).I32Const(0x31535252).I32Ne().If().Unreachable().End()
		deserialize.LocalGet(0).I32Load(4).I32Const(1).I32Ne().If().Unreachable().End()
		// s = src + 12 + keyLen; end = src + len
		deserialize.LocalGet(0).I32Const(12).I32Add().LocalGet(0).I32Load(8).I32Add().LocalSet(s)
		deserialize.LocalGet(0).LocalGet(1).I32Add().LocalSet(end)
		deserialize.LocalGet(1).Call(alloc.Ref()).LocalSet(dst)
		deserialize.LocalGet(dst).LocalSet(d)
		// Unescape loop.
		deserialize.Block().Loop().
			// Running past the end means a missing sentinel: trap.
			LocalGet(s).LocalGet(end).I32GeU().If().Unreachable().End().
			LocalGet(s).I32Load8U(0).LocalSet(bb).
			// Sentinel: consume and exit.
			LocalGet(bb).I32Eqz().
			If().
			LocalGet(s).I32Const(1).I32Add().LocalSet(s).
			Br(2).
			End().
			LocalGet(bb).I32Const(1).I32Eq().
			If().
			// Escape pair.
			LocalGet(s).I32Const(1).I32Add().LocalSet(s).
			LocalGet(s).LocalGet(end).I32GeU().If().Unreachable().End().
			LocalGet(s).I32Load8U(0).LocalSet(bb).
			// Code must be 2 or 3.
			LocalGet(bb).I32Const(2).I32LtU().If().Unreachable().End().
			LocalGet(bb).I32Const(3).I32GtU().If().Unreachable().End().
			LocalGet(d).LocalGet(bb).I32Const(2).I32Sub().I32Store8(0).
			Else().
			LocalGet(d).LocalGet(bb).I32Store8(0).
			End().
			LocalGet(d).I32Const(1).I32Add().LocalSet(d).
			LocalGet(s).I32Const(1).I32Add().LocalSet(s).
			Br(0).
			End().End()
		// Strict framing: the sentinel must be the final byte.
		deserialize.LocalGet(s).LocalGet(end).I32Ne().If().Unreachable().End()
		deserialize.LocalGet(dst).LocalGet(d).LocalGet(dst).I32Sub().Call(setOut.Ref())
		deserialize.LocalGet(dst).LocalGet(d).LocalGet(dst).I32Sub().Call(pack.Ref())
	}

	// ---- resize_half(src, w, h) -> packed(dst, (w/2)*(h/2)) -----------------------------
	// 2x2 box-filter downsample over an 8-bit grayscale image — the "Resize
	// Image" workload of Fig. 2a.
	resize := b.NewFunc(ExportResizeHalf, []wasm.ValType{i32, i32, i32}, []wasm.ValType{i64})
	{
		ow := resize.AddLocal(i32)
		oh := resize.AddLocal(i32)
		dst := resize.AddLocal(i32)
		x := resize.AddLocal(i32)
		y := resize.AddLocal(i32)
		row := resize.AddLocal(i32)
		base := resize.AddLocal(i32)
		sum := resize.AddLocal(i32)
		resize.LocalGet(1).I32Const(1).I32ShrU().LocalSet(ow)
		resize.LocalGet(2).I32Const(1).I32ShrU().LocalSet(oh)
		resize.LocalGet(ow).LocalGet(oh).I32Mul().Call(alloc.Ref()).LocalSet(dst)
		resize.I32Const(0).LocalSet(y)
		resize.Block().Loop().
			LocalGet(y).LocalGet(oh).I32GeU().BrIf(1).
			// row = src + (2y)*w
			LocalGet(0).LocalGet(y).I32Const(1).I32Shl().LocalGet(1).I32Mul().I32Add().LocalSet(row).
			I32Const(0).LocalSet(x).
			Block().Loop().
			LocalGet(x).LocalGet(ow).I32GeU().BrIf(1).
			// base = row + 2x
			LocalGet(row).LocalGet(x).I32Const(1).I32Shl().I32Add().LocalSet(base).
			// sum = p00 + p01 + p10 + p11
			LocalGet(base).I32Load8U(0).
			LocalGet(base).I32Load8U(1).I32Add().
			LocalGet(base).LocalGet(1).I32Add().I32Load8U(0).I32Add().
			LocalGet(base).LocalGet(1).I32Add().I32Load8U(1).I32Add().
			LocalSet(sum).
			// dst[y*ow + x] = sum >> 2
			LocalGet(dst).LocalGet(y).LocalGet(ow).I32Mul().I32Add().LocalGet(x).I32Add().
			LocalGet(sum).I32Const(2).I32ShrU().
			I32Store8(0).
			LocalGet(x).I32Const(1).I32Add().LocalSet(x).
			Br(0).
			End().End().
			LocalGet(y).I32Const(1).I32Add().LocalSet(y).
			Br(0).
			End().End()
		resize.LocalGet(dst).LocalGet(ow).LocalGet(oh).I32Mul().Call(setOut.Ref())
		resize.LocalGet(dst).LocalGet(ow).LocalGet(oh).I32Mul().Call(pack.Ref())
	}

	// ---- sock_send_all(fd, ptr, len) -> errno ---------------------------------------------
	sendAll := b.NewFunc(ExportSockSendAll, []wasm.ValType{i32, i32, i32}, []wasm.ValType{i32})
	sendAll.LocalGet(0).LocalGet(1).LocalGet(2).Call(sockSend)

	// ---- sock_recv_exact(fd, ptr, len) -> errno ---------------------------------------------
	recvExact := b.NewFunc(ExportSockRecvExact, []wasm.ValType{i32, i32, i32}, []wasm.ValType{i32})
	{
		off := recvExact.AddLocal(i32)
		got := recvExact.AddLocal(i32)
		recvExact.Block().Loop().
			LocalGet(off).LocalGet(2).I32GeU().BrIf(1).
			LocalGet(0).
			LocalGet(1).LocalGet(off).I32Add().
			LocalGet(2).LocalGet(off).I32Sub().
			Call(sockRecv).LocalSet(got).
			// got < 0: return -got (errno)
			LocalGet(got).I32Const(0).I32LtS().
			If().I32Const(0).LocalGet(got).I32Sub().Return().End().
			// got == 0: unexpected EOF
			LocalGet(got).I32Eqz().
			If().I32Const(int32(wasi.ErrnoIO)).Return().End().
			LocalGet(off).LocalGet(got).I32Add().LocalSet(off).
			Br(0).
			End().End()
		recvExact.I32Const(0)
	}

	// ---- fill_from_file(fd, n) -> packed(ptr, read) ------------------------------------------
	fill := b.NewFunc(ExportFillFromFile, []wasm.ValType{i32, i32}, []wasm.ValType{i64})
	{
		ptr := fill.AddLocal(i32)
		off := fill.AddLocal(i32)
		got := fill.AddLocal(i32)
		fill.LocalGet(1).Call(alloc.Ref()).LocalSet(ptr)
		fill.Block().Loop().
			LocalGet(off).LocalGet(1).I32GeU().BrIf(1).
			LocalGet(0).
			LocalGet(ptr).LocalGet(off).I32Add().
			LocalGet(1).LocalGet(off).I32Sub().
			Call(fdRead).LocalSet(got).
			// got <= 0: stop (EOF or error)
			LocalGet(got).I32Const(1).I32LtS().BrIf(1).
			LocalGet(off).LocalGet(got).I32Add().LocalSet(off).
			Br(0).
			End().End()
		fill.LocalGet(ptr).LocalGet(off).Call(setOut.Ref())
		fill.LocalGet(ptr).LocalGet(off).Call(pack.Ref())
	}

	return b.Build()
}

// ---------------------------------------------------------------------------
// Go reference implementations, bit-identical to the guest functions, used
// by tests and host-side verification.

// ReferenceProduce returns the payload produce(n) generates.
func ReferenceProduce(n int) []byte {
	out := make([]byte, n)
	seed := uint64(produceSeed)
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(out[i:], seed)
		seed = seed*lcgMul + lcgAdd
	}
	for ; i < n; i++ {
		out[i] = byte(seed)
		seed = bits.RotateLeft64(seed, 8)
	}
	return out
}

// ReferenceProduceChecksum returns ReferenceChecksum(ReferenceProduce(n))
// without materializing the payload: the LCG's words are folded into the
// digest as they are generated, the tail bytes one by one.
func ReferenceProduceChecksum(n int) uint64 {
	h, seed := uint64(fnvOffset), uint64(produceSeed)
	i := 0
	for ; i+8 <= n; i += 8 {
		h = (h ^ seed) * fnvPrime
		seed = seed*lcgMul + lcgAdd
	}
	for ; i < n; i++ {
		h = (h ^ uint64(byte(seed))) * fnvPrime
		seed = bits.RotateLeft64(seed, 8)
	}
	return h
}

// ReferenceChecksum returns the digest consume(ptr, len) computes.
func ReferenceChecksum(data []byte) uint64 {
	h := uint64(fnvOffset)
	i := 0
	for ; i+8 <= len(data); i += 8 {
		h = (h ^ binary.LittleEndian.Uint64(data[i:])) * fnvPrime
	}
	for ; i < len(data); i++ {
		h = (h ^ uint64(data[i])) * fnvPrime
	}
	return h
}

// ReferenceResizeHalf returns the image resize_half produces for a w×h
// 8-bit grayscale input.
func ReferenceResizeHalf(src []byte, w, h int) []byte {
	ow, oh := w/2, h/2
	out := make([]byte, ow*oh)
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			base := (2*y)*w + 2*x
			sum := int(src[base]) + int(src[base+1]) + int(src[base+w]) + int(src[base+w+1])
			out[y*ow+x] = byte(sum >> 2)
		}
	}
	return out
}
