package core

// KernelSendWindow exposes the kernel channel's send window to the tests
// that pin staged memory against it.
const KernelSendWindow = kernelSendWindow
