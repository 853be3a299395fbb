package main

import (
	"testing"
	"time"
)

func TestParseProcStatCPU(t *testing.T) {
	// utime=1234 stime=566 ticks; the command name holds spaces and a ')'.
	stat := []byte("4242 (serv ed) x) S 1 4242 4242 0 -1 4194560 2873 0 0 0 1234 566 0 0 20 0 9 0 1184573 1270059008 6921 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0\n")
	got, err := parseProcStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 18 * time.Second; got != want {
		t.Errorf("cpu = %v, want %v (1800 ticks at 100 Hz)", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12 13"} {
		if _, err := parseProcStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseProcStatCPU(%q) did not fail", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := []byte("Name:\tserved\nVmPeak:\t 1240292 kB\nVmHWM:\t   28160 kB\nVmRSS:\t   27648 kB\n")
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 27.5 {
		t.Errorf("VmHWM = %v MB, want 27.5", got)
	}
	if _, err := parseVmHWM([]byte("Name:\tserved\n")); err == nil {
		t.Error("a status without VmHWM did not fail")
	}
	if _, err := parseVmHWM([]byte("VmHWM:\t12 MB\n")); err == nil {
		t.Error("a VmHWM in an unexpected unit did not fail")
	}
}
