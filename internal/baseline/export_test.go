package baseline

// CodecTime exposes the modeled WasmEdge codec pass to the tests that check
// the serialization charge against it.
var CodecTime = codecTime
