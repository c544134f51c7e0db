package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// envHeader fingerprints the host, so results from hosts with different
// core counts or vector units are not compared blindly.
type envHeader struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOAMD64    string `json:"goamd64"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	AVX        bool   `json:"avx"`
	AVX2       bool   `json:"avx2"`
}

func environment() envHeader {
	h := envHeader{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				h.GOAMD64 = s.Value
			}
		}
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			h.CPUModel = strings.TrimSpace(val)
		case "flags":
			for _, fl := range strings.Fields(val) {
				h.AVX = h.AVX || fl == "avx"
				h.AVX2 = h.AVX2 || fl == "avx2"
			}
		}
		if h.CPUModel != "" && h.AVX2 {
			break
		}
	}
	return h
}
