// Package geo provides geographic primitives used throughout VNS:
// coordinates, great-circle distance, world regions, and a catalog of
// city locations used to place PoPs, AS sites, and prefixes.
//
// The paper's geo-based routing computes the great-circle distance
// between an egress router and the GeoIP location of a destination
// prefix, so distance computation here is the foundation of the whole
// system. Distances also drive the data-plane delay model: light in
// fiber covers roughly 200 km per millisecond of round-trip time.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius used for great-circle distances.
const EarthRadiusKm = 6371.0

// KmPerMsRTT converts great-circle kilometers to round-trip milliseconds.
// Light in fiber propagates at about 2/3 c ≈ 200 km/ms one way, i.e. a
// round trip covers ~100 km per millisecond; real paths are longer than
// the great circle, so we use the widely quoted rule of thumb that RTT in
// milliseconds is distance in km divided by 100 for a round trip over a
// reasonably direct fiber path.
const KmPerMsRTT = 100.0

// LatLon is a position on the Earth's surface in decimal degrees.
type LatLon struct {
	Lat float64 // degrees north, [-90, 90]
	Lon float64 // degrees east, [-180, 180]
}

// Valid reports whether the coordinates are within their legal ranges.
func (p LatLon) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

func (p LatLon) String() string {
	return fmt.Sprintf("(%.4f, %.4f)", p.Lat, p.Lon)
}

func radians(deg float64) float64 { return deg * math.Pi / 180 }

// DistanceKm returns the great-circle distance between a and b in
// kilometers, computed with the haversine formula. The haversine form is
// numerically stable for small distances, unlike the spherical law of
// cosines.
func DistanceKm(a, b LatLon) float64 {
	lat1, lon1 := radians(a.Lat), radians(a.Lon)
	lat2, lon2 := radians(b.Lat), radians(b.Lon)
	dLat := lat2 - lat1
	dLon := lon2 - lon1
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	// Clamp against floating-point drift before the sqrt/asin.
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(s))
}

// RTTMs returns the modeled round-trip time in milliseconds over a direct
// fiber path between a and b, excluding queueing and per-hop overheads.
func RTTMs(a, b LatLon) float64 {
	return DistanceKm(a, b) / KmPerMsRTT
}
