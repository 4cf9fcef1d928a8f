//go:build !unix

package main

import "time"

// processCPU is unavailable without getrusage; cpu_us_per_op reads 0 there.
func processCPU() time.Duration { return 0 }

// peakRSSMB is unavailable without getrusage; peak_rss_mb reads 0 there.
func peakRSSMB() float64 { return 0 }
