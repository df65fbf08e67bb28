package shard

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/store"
)

// reseal replaces a manifest document's payload and recomputes the
// header CRC, so a forged field reaches validation instead of failing the
// checksum.
func reseal(payload []byte) []byte {
	return append([]byte(fmt.Sprintf("%s %08x\n", manifestMagic, crc32.ChecksumIEEE(payload))), payload...)
}

// FuzzDecodeManifest throws arbitrary bytes at the manifest parser, which
// replicas run on documents fetched from the publisher over HTTP. The
// invariants: never panic; an accepted manifest re-encodes and decodes to
// an equal value; and Owner maps every user in [0, Users) to a shard in
// [0, Shards).
//
// The corpus seeds a manifest Split wrote for a real 3-shard group, its
// truncations, a flipped CRC digit, and a forged shards count both with
// the stale CRC and resealed so it reaches validation.
func FuzzDecodeManifest(f *testing.F) {
	src := filepath.Join(f.TempDir(), "full.v2.snap")
	if err := store.SaveV2(src, testModel(30, 4, 3, 40, 9)); err != nil {
		f.Fatal(err)
	}
	man, err := Split(src, f.TempDir(), 1, SplitOptions{Shards: 3})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeManifest(&buf, man); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	nl := bytes.IndexByte(valid, '\n')
	f.Add(valid)
	f.Add(valid[:nl])           // header line only
	f.Add(valid[:nl+1])         // empty payload
	f.Add(valid[:len(valid)/2]) // mid-payload truncation
	f.Add(valid[:len(valid)-1]) // closing brace missing
	crcFlip := append([]byte(nil), valid...)
	crcFlip[nl-1] ^= 0x01 // last hex digit of the stored CRC
	f.Add(crcFlip)
	forged := bytes.Replace(valid[nl+1:], []byte(`"shards": 3`), []byte(`"shards": 4`), 1)
	f.Add(append(append([]byte(nil), valid[:nl+1]...), forged...))
	f.Add(reseal(forged))
	f.Add(reseal([]byte(`{"shards": 1, "users": 5, "ranges": [{"index": 0, "user_hi": 5}]}`)))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeManifest(bytes.NewReader(data))
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := EncodeManifest(&re, got); err != nil {
			t.Fatalf("accepted manifest does not re-encode: %v", err)
		}
		again, err := DecodeManifest(&re)
		if err != nil {
			t.Fatalf("re-encoded manifest does not decode: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("manifest changed across a re-encode:\n%+v\n%+v", got, again)
		}
		// Ranges tile [0, Users) in order, so checking every user is
		// linear in the ranges plus the users; cap the users walked so a
		// forged huge count cannot stall the fuzzer, and check each
		// range's ends beyond the cap.
		check := func(u int) {
			if o := got.Owner(u); o < 0 || o >= got.Shards {
				t.Fatalf("Owner(%d) = %d outside [0, %d)", u, o, got.Shards)
			}
		}
		for u := 0; u < got.Users && u < 1<<12; u++ {
			check(u)
		}
		for _, r := range got.Ranges {
			if r.UserHi > r.UserLo {
				check(r.UserLo)
				check(r.UserHi - 1)
			}
		}
	})
}
