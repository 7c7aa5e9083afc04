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

func TestFilePager(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	p, err := CreateFilePager(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	testPagerBasics(t, p)

	// Persist a recognizable page, close, reopen, verify.
	id, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5C}, 512)
	if err := p.WritePage(id, payload); err != nil {
		t.Fatal(err)
	}
	numPages := p.NumPages()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFilePager(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumPages() != numPages {
		t.Fatalf("reopened pager has %d pages, want %d", re.NumPages(), numPages)
	}
	buf := make([]byte, 512)
	if err := re.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("persisted page corrupted")
	}
}

func TestOpenFilePagerBadSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.db")
	p, err := CreateFilePager(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Allocate(); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := OpenFilePager(path, 768); err == nil {
		t.Fatal("mismatched page size accepted")
	}
	if _, err := OpenFilePager(filepath.Join(t.TempDir(), "missing.db"), 512); err == nil {
		t.Fatal("missing file accepted")
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

// TestFilePagerConcurrent hammers the lock-free read path (satellite of the
// durable-storage refactor): many goroutines read while one writes and one
// allocates. Run with -race.
func TestFilePagerConcurrent(t *testing.T) {
	p, err := CreateFilePager(filepath.Join(t.TempDir(), "pages.db"), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const pages = 16
	ids := make([]PageID, pages)
	for i := range ids {
		id, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		if err := p.WritePage(id, bytes.Repeat([]byte{byte(i)}, 256)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 256)
			for i := 0; i < 300; i++ {
				switch {
				case g == 0 && i%10 == 0: // one writer refreshes pages
					if err := p.WritePage(ids[i%pages], buf); err != nil {
						t.Error(err)
						return
					}
				case g == 1 && i%50 == 0: // occasional growth
					if _, err := p.Allocate(); err != nil {
						t.Error(err)
						return
					}
				default: // everyone else reads lock-free
					if err := p.ReadPage(ids[(g*5+i)%pages], buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := p.Stats(); st.Reads == 0 || st.Writes == 0 {
		t.Fatalf("stats not counting: %+v", st)
	}
}

// TestReadOnlyPagersConcurrent checks the serving-side file pager over an
// index file under concurrent readers. Run with -race.
func TestReadOnlyPagersConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ix.rcjx")
	want := writeTestIndexFile(t, path, 8)
	for _, be := range []Backend{BackendFile} {
		t.Run(be.String(), func(t *testing.T) {
			pager, _, err := OpenIndexFile(path, be)
			if err != nil {
				t.Fatal(err)
			}
			defer pager.Close()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					buf := make([]byte, want.PageSize)
					for i := 0; i < 300; i++ {
						id := PageID((g*3 + i) % want.NumPages)
						if err := pager.ReadPage(id, buf); err != nil {
							t.Error(err)
							return
						}
						if buf[0] != byte(id+1) {
							t.Errorf("page %d: got byte %d", id, buf[0])
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
