package lrpc

// Native Go fuzz target for the shm bulk descriptor (shm.go). The
// descriptor sits in a slot the client writes, so a hostile client
// controls every byte readBulkDesc parses. The invariants: never panic,
// every returned segment lies inside the granted bulk region, and the
// total never exceeds the granted bulk bytes.

import (
	"encoding/binary"
	"testing"
	"unsafe"
)

// bulkDescSeed encodes a descriptor from (start, count) page runs, the
// way ShmClient.writeBulkDesc does, with the run count given separately
// so seeds can lie about it.
func bulkDescSeed(nruns uint32, runs ...uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, nruns)
	for _, r := range runs {
		b = binary.LittleEndian.AppendUint32(b, r)
	}
	return b
}

func FuzzBulkDesc(f *testing.F) {
	// Seed corpus: well-formed descriptors, the region's edges, and the
	// liars a hostile client would try. testdata/fuzz/FuzzBulkDesc
	// holds the same shapes as files for `go test` runs without -fuzz.
	f.Add(uint8(4), bulkDescSeed(1, 0, 1))
	f.Add(uint8(4), bulkDescSeed(2, 0, 2, 3, 1))
	f.Add(uint8(4), bulkDescSeed(1, 0, 4))                // the whole region
	f.Add(uint8(4), bulkDescSeed(1, 3, 2))                // runs past the end
	f.Add(uint8(4), bulkDescSeed(1, 0xFFFFFFFF, 2))       // start wraps
	f.Add(uint8(4), bulkDescSeed(1, 1, 0))                // empty run
	f.Add(uint8(4), bulkDescSeed(maxBulkRuns+1))          // run count liar
	f.Add(uint8(4), bulkDescSeed(3, 0, 4, 0, 4, 0, 4))    // overlapping runs
	f.Add(uint8(0), bulkDescSeed(1, 0, 1))                // no bulk region
	f.Add(uint8(7), bulkDescSeed(0))                      // no runs
	f.Add(uint8(7), bulkDescSeed(2, 6, 1, 0, 0x80000001)) // count overflows int32

	// One segment per granted page count (0-7 pages), built once.
	var sessions [8]*shmSession
	for pages := range sessions {
		lay := shmLayoutFor(1, 64, pages*bulkPageSize)
		sessions[pages] = &shmSession{seg: make([]byte, lay.segSize), lay: lay}
	}

	f.Fuzz(func(t *testing.T, pages uint8, desc []byte) {
		ss := sessions[pages%8]
		base := ss.lay.slotBase(0)
		area := ss.seg[base+slotHdrSize : base+slotPayloadOff]
		clear(area)
		copy(area, desc)
		segs, total, err := ss.readBulkDesc(base)
		if err != nil {
			return
		}
		region := int64(ss.lay.bulkBytes)
		if total > region {
			t.Fatalf("descriptor total %d exceeds the %d-byte region", total, region)
		}
		start := uintptr(unsafe.Pointer(&ss.seg[0])) + uintptr(ss.lay.bulkOff)
		var sum int64
		for i, s := range segs {
			if len(s) == 0 {
				t.Fatalf("segment %d is empty", i)
			}
			off := int64(uintptr(unsafe.Pointer(&s[0])) - start)
			if off < 0 || off+int64(len(s)) > region {
				t.Fatalf("segment %d [%d,+%d) outside the %d-byte region", i, off, len(s), region)
			}
			sum += int64(len(s))
		}
		if sum != total {
			t.Fatalf("segments cover %d bytes, total says %d", sum, total)
		}
	})
}
