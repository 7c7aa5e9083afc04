package storage

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"testing"
)

func testPagerBasics(t *testing.T, p Pager) {
	t.Helper()
	if p.NumPages() != 0 {
		t.Fatalf("fresh pager has %d pages", p.NumPages())
	}
	id1, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id2, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatal("duplicate page ids")
	}
	if p.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2", p.NumPages())
	}

	data := bytes.Repeat([]byte{0xAB}, p.PageSize())
	if err := p.WritePage(id2, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, p.PageSize())
	if err := p.ReadPage(id2, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("read != written")
	}
	// Fresh page is zeroed.
	if err := p.ReadPage(id1, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("fresh page not zeroed")
		}
	}
	// Short writes zero-pad the tail.
	if err := p.WritePage(id2, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := p.ReadPage(id2, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 || buf[3] != 0 {
		t.Fatal("short write not padded")
	}

	// Out-of-range access errors.
	if err := p.ReadPage(99, buf); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("read out of range: %v", err)
	}
	if err := p.WritePage(99, buf); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("write out of range: %v", err)
	}
	// Oversized write rejected.
	if err := p.WritePage(id1, make([]byte, p.PageSize()+1)); err == nil {
		t.Fatal("oversized write accepted")
	}
	// Undersized read buffer rejected.
	if err := p.ReadPage(id1, make([]byte, 1)); err == nil {
		t.Fatal("undersized read buffer accepted")
	}

	st := p.Stats()
	if st.Reads == 0 || st.Writes == 0 {
		t.Fatalf("stats not counting: %+v", st)
	}
}

func TestMemPager(t *testing.T) {
	p := NewMemPager(0)
	if p.PageSize() != DefaultPageSize {
		t.Fatalf("default page size = %d", p.PageSize())
	}
	testPagerBasics(t, p)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMemPagerConcurrent(t *testing.T) {
	p := NewMemPager(128)
	const pages = 32
	ids := make([]PageID, pages)
	for i := range ids {
		id, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 128)
			for i := 0; i < 200; i++ {
				id := ids[(g*7+i)%pages]
				if i%3 == 0 {
					if err := p.WritePage(id, buf); err != nil {
						t.Error(err)
						return
					}
				} else if err := p.ReadPage(id, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// hammerReads reads every page of pager from 8 goroutines at once and
// compares each against src. Run with -race.
func hammerReads(t *testing.T, pager, src Pager) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf, ref := make([]byte, pager.PageSize()), make([]byte, pager.PageSize())
			for i := 0; i < 300; i++ {
				id := PageID((g*3 + i) % pager.NumPages())
				if err := pager.ReadPage(id, buf); err != nil {
					t.Error(err)
					return
				}
				if err := src.ReadPage(id, ref); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf, ref) {
					t.Errorf("page %d differs from the source image", id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFilePagerConcurrent hammers the lock-free read path of the file
// substrate over the v2 fixture and the same pages saved packed: verbatim
// pages pread into the caller's buffer, blobs decoded through a private copy.
func TestFilePagerConcurrent(t *testing.T) {
	const numPages = 6
	src := newPackedTestPager(t, numPages)
	v3Path := filepath.Join(t.TempDir(), "ix.rcjx")
	if err := WriteIndexFile(v3Path, packedTestSuperblock(numPages), src); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{v2Fixture, v3Path} {
		pager, sb, err := OpenIndexFile(path, BackendFile)
		if err != nil {
			t.Fatal(err)
		}
		hammerReads(t, pager, src)
		if st := pager.Stats(); st.Reads != 8*300 {
			t.Fatalf("v%d: Stats.Reads = %d, want %d", sb.Version, st.Reads, 8*300)
		}
		if err := pager.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadOnlyPagersConcurrent checks the serving-side substrates over one
// index file under concurrent readers. Run with -race.
func TestReadOnlyPagersConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ix.rcjx")
	writeTestIndexFile(t, path, 8)
	for _, be := range []Backend{BackendFile, BackendHTTP} {
		t.Run(be.String(), func(t *testing.T) {
			pager, _, err := openOn(t, path, be)
			if err != nil {
				t.Fatal(err)
			}
			defer pager.Close()
			hammerReads(t, pager, testPager(t, 8))
		})
	}
}
