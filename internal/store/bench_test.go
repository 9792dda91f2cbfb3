// Store benchmarks behind EXPERIMENTS.md §"Serving": the per-operation
// cost of each tier, on entry sizes shaped like real cached
// recommendations (~1 KB body + ~1 KB canonical-spec metadata).
//
//	go test -bench=BenchmarkStore -benchmem ./internal/store/
package store_test

import (
	"fmt"
	"strings"
	"testing"

	"aarc/internal/store"
)

func benchEntry() store.Entry {
	body := fmt.Sprintf(`{"fingerprint":"sha256:%064d","assignment":{%s}}`, 7,
		`"a":{"cpu":4,"mem_mb":4096},"b":{"cpu":2,"mem_mb":2048},"c":{"cpu":8,"mem_mb":8192}`)
	meta := make([]byte, 0, 1024)
	for len(meta) < 1024 {
		meta = append(meta, `{"spec":"chunk"}`...)
	}
	return store.Entry{Body: []byte(body), Meta: meta}
}

func benchStore(b *testing.B, open func(b *testing.B) store.Store) {
	e := benchEntry()
	b.Run("Put", func(b *testing.B) {
		st := open(b)
		defer st.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Put(key(i%512), e); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("GetHit", func(b *testing.B) {
		st := open(b)
		defer st.Close()
		for i := 0; i < 512; i++ {
			if err := st.Put(key(i), e); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok, err := st.Get(key(i % 512)); !ok || err != nil {
				b.Fatalf("miss: ok=%v err=%v", ok, err)
			}
		}
	})
	b.Run("GetMiss", func(b *testing.B) {
		st := open(b)
		defer st.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok, err := st.Get("sha256:absent"); ok || err != nil {
				b.Fatalf("unexpected: ok=%v err=%v", ok, err)
			}
		}
	})
}

func BenchmarkStoreMemory(b *testing.B) {
	benchStore(b, func(b *testing.B) store.Store { return store.NewMemory(1024) })
}

func BenchmarkStoreDisk(b *testing.B) {
	benchStore(b, func(b *testing.B) store.Store {
		d, err := store.OpenDisk(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		return d
	})
}

func BenchmarkStoreTiered(b *testing.B) {
	benchStore(b, func(b *testing.B) store.Store {
		d, err := store.OpenDisk(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		return store.NewTiered(store.NewMemory(1024), d)
	})
}

// durableDir returns a disk store directory holding 512 entries shaped
// like aarcload durable-churn's, a ~0.5 KB body and ~8.4 KB of metadata:
// ~9 KB files in format 2, as Put writes them, or ~12 KB once base64'd
// in format 1, as earlier versions wrote them.
func durableDir(b *testing.B, format int) string {
	dir := b.TempDir()
	d, err := store.OpenDisk(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 512; i++ {
		e := store.Entry{
			Body: []byte(fmt.Sprintf(`{"fingerprint":%q,"assignment":{%s}}`, key(i), strings.Repeat(`"f":{"cpu":2,"mem_mb":1024},`, 16))),
			Meta: []byte(fmt.Sprintf(`{"spec":{"nodes":[%s]},"seed":%d}`, strings.Repeat(`{"id":"node","runtime_ms":120.5,"deps":["a","b"]},`, 168), i)),
		}
		if format == 1 {
			err = store.WriteFormat1(dir, key(i), e)
		} else {
			err = d.Put(key(i), e)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	return dir
}

// diskFormats runs bench once per stored format, as sub-benchmarks
// format1 and format2.
func diskFormats(b *testing.B, bench func(b *testing.B, dir string)) {
	for _, format := range []int{1, 2} {
		b.Run(fmt.Sprintf("format%d", format), func(b *testing.B) {
			bench(b, durableDir(b, format))
		})
	}
}

// BenchmarkOpenDisk times a restart's index rebuild over durableDir:
// every file read and verified, on GOMAXPROCS workers.
//
//	go test -run '^$' -bench 'BenchmarkOpenDisk|BenchmarkDiskGet' -benchmem -cpu 1,2 ./internal/store/
func BenchmarkOpenDisk(b *testing.B) {
	diskFormats(b, func(b *testing.B, dir string) {
		b.ReportAllocs()
		for b.Loop() {
			d, err := store.OpenDisk(dir)
			if err != nil || d.Len() != 512 {
				b.Fatalf("OpenDisk: %d entries, err %v", d.Len(), err)
			}
			d.Close()
		}
	})
}

// BenchmarkDiskGet times a disk hit on durableDir's entries.
func BenchmarkDiskGet(b *testing.B) {
	diskFormats(b, func(b *testing.B, dir string) {
		d, err := store.OpenDisk(dir)
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		keys := make([]string, 512)
		for i := range keys {
			keys[i] = key(i)
		}
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			if _, ok, err := d.Get(keys[i%512]); !ok || err != nil {
				b.Fatalf("miss: ok=%v err=%v", ok, err)
			}
			i++
		}
	})
}
