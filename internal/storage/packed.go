package storage

import (
	"bufio"

	"repro/internal/pagecodec"
)

// writePackedBody streams the v3 body — page directory, blobs, checksum
// table — to w, which has already received the header block. Blobs are
// buffered in memory (the compressed image, typically well under half the
// raw size) because the directory precedes them in the file but their
// offsets are only known once every page is encoded.
func writePackedBody(w *bufio.Writer, sb Superblock, src Pager) error {
	base := uint64(sb.PageSize) + uint64(PageDirSize(sb.NumPages))
	dir := make([]uint64, sb.NumPages+1)
	table := make([]uint32, sb.NumPages)
	blobs := make([]byte, 0, sb.NumPages*64)
	buf := make([]byte, sb.PageSize)
	for i := 0; i < sb.NumPages; i++ {
		if err := src.ReadPage(PageID(i), buf); err != nil {
			return err
		}
		table[i] = PageChecksum(buf)
		dir[i] = base + uint64(len(blobs))
		blobs = pagecodec.AppendPage(blobs, buf)
	}
	dir[sb.NumPages] = base + uint64(len(blobs))
	dbuf := make([]byte, PageDirSize(sb.NumPages))
	if err := EncodePageDir(dir, dbuf); err != nil {
		return err
	}
	if _, err := w.Write(dbuf); err != nil {
		return err
	}
	if _, err := w.Write(blobs); err != nil {
		return err
	}
	tbuf := make([]byte, PageTableSize(sb.NumPages))
	if err := EncodePageTable(table, tbuf); err != nil {
		return err
	}
	_, err := w.Write(tbuf)
	return err
}
