package geoip

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/netip"

	"vns/internal/geo"
)

// Binary serialization of the database, so a generated database can be
// distributed to reflectors the way the deployment ships MaxMind
// snapshots to its RR hosts. Format (big endian):
//
//	magic   [8]byte  "VNSGEO\x00\x01"
//	count   uint32
//	records count times:
//	  family  uint8   (4 or 6)
//	  addr    4 or 16 bytes
//	  bits    uint8
//	  lat     float64
//	  lon     float64
//	  region  uint8
//	  stale   uint8
//	  clen    uint8
//	  country clen bytes
var dbMagic = [8]byte{'V', 'N', 'S', 'G', 'E', 'O', 0, 1}

// ErrBadFormat reports an unreadable database stream.
var ErrBadFormat = errors.New("geoip: bad database format")

// WriteTo serializes the database. It returns the byte count written.
func (d *DB) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	n := int64(0)
	write := func(data any) error {
		if err := binary.Write(bw, binary.BigEndian, data); err != nil {
			return err
		}
		n += int64(binary.Size(data))
		return nil
	}
	if err := write(dbMagic); err != nil {
		return n, err
	}
	if err := write(uint32(d.Len())); err != nil {
		return n, err
	}
	var failure error
	d.Walk(func(rec Record) bool {
		addr := rec.Prefix.Addr()
		var family uint8 = 6
		if addr.Is4() {
			family = 4
		}
		if err := write(family); err != nil {
			failure = err
			return false
		}
		raw := addr.AsSlice()
		if err := write(raw); err != nil {
			failure = err
			return false
		}
		staleByte := uint8(0)
		if rec.Stale {
			staleByte = 1
		}
		country := []byte(rec.Country)
		if len(country) > 255 {
			failure = fmt.Errorf("geoip: country %q too long", rec.Country)
			return false
		}
		for _, v := range []any{
			uint8(rec.Prefix.Bits()),
			math.Float64bits(rec.Pos.Lat),
			math.Float64bits(rec.Pos.Lon),
			uint8(rec.Region),
			staleByte,
			uint8(len(country)),
		} {
			if err := write(v); err != nil {
				failure = err
				return false
			}
		}
		if err := write(country); err != nil {
			failure = err
			return false
		}
		return true
	})
	if failure != nil {
		return n, failure
	}
	return n, bw.Flush()
}

// ReadFrom deserializes records into the database (replacing duplicates,
// keeping existing non-conflicting records). It returns the byte count
// consumed.
func (d *DB) ReadFrom(r io.Reader) (int64, error) {
	br := bufio.NewReader(r)
	n := int64(0)
	read := func(data any) error {
		if err := binary.Read(br, binary.BigEndian, data); err != nil {
			return err
		}
		n += int64(binary.Size(data))
		return nil
	}
	var magic [8]byte
	if err := read(&magic); err != nil {
		return n, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if magic != dbMagic {
		return n, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	var count uint32
	if err := read(&count); err != nil {
		return n, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	for i := uint32(0); i < count; i++ {
		var family uint8
		if err := read(&family); err != nil {
			return n, fmt.Errorf("%w: record %d: %v", ErrBadFormat, i, err)
		}
		var addr netip.Addr
		switch family {
		case 4:
			var raw [4]byte
			if err := read(&raw); err != nil {
				return n, fmt.Errorf("%w: record %d addr: %v", ErrBadFormat, i, err)
			}
			addr = netip.AddrFrom4(raw)
		case 6:
			var raw [16]byte
			if err := read(&raw); err != nil {
				return n, fmt.Errorf("%w: record %d addr: %v", ErrBadFormat, i, err)
			}
			addr = netip.AddrFrom16(raw)
		default:
			return n, fmt.Errorf("%w: record %d family %d", ErrBadFormat, i, family)
		}
		var bits, region, stale, clen uint8
		var latBits, lonBits uint64
		for _, dst := range []any{&bits, &latBits, &lonBits, &region, &stale, &clen} {
			if err := read(dst); err != nil {
				return n, fmt.Errorf("%w: record %d: %v", ErrBadFormat, i, err)
			}
		}
		country := make([]byte, clen)
		if err := read(&country); err != nil {
			return n, fmt.Errorf("%w: record %d country: %v", ErrBadFormat, i, err)
		}
		if int(bits) > addr.BitLen() {
			return n, fmt.Errorf("%w: record %d bits %d", ErrBadFormat, i, bits)
		}
		rec := Record{
			Prefix:  netip.PrefixFrom(addr, int(bits)),
			Pos:     geo.LatLon{Lat: math.Float64frombits(latBits), Lon: math.Float64frombits(lonBits)},
			Country: string(country),
			Region:  geo.Region(region),
			Stale:   stale != 0,
		}
		if !rec.Pos.Valid() {
			return n, fmt.Errorf("%w: record %d position", ErrBadFormat, i)
		}
		if err := d.Insert(rec); err != nil {
			return n, fmt.Errorf("%w: record %d: %v", ErrBadFormat, i, err)
		}
	}
	return n, nil
}
