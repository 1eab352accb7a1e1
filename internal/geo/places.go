package geo

import "sort"

// Place is a named location with a region, used to site PoPs, AS
// infrastructure, and synthetic prefixes.
type Place struct {
	Name    string
	Country string
	Region  Region
	Pos     LatLon
	// Rare marks places that exist for country-centroid geometry but
	// host almost no Internet infrastructure; the topology generator
	// does not site ASes there.
	Rare bool
}

// places is the built-in world city catalog. Coordinates are real; the
// catalog deliberately over-represents Internet hub cities because that is
// where ASes site infrastructure.
var places = []Place{
	// Europe
	{Name: "Oslo", Country: "NO", Region: RegionEU, Pos: LatLon{59.91, 10.75}},
	{Name: "Stockholm", Country: "SE", Region: RegionEU, Pos: LatLon{59.33, 18.07}},
	{Name: "Copenhagen", Country: "DK", Region: RegionEU, Pos: LatLon{55.68, 12.57}},
	{Name: "Helsinki", Country: "FI", Region: RegionEU, Pos: LatLon{60.17, 24.94}},
	{Name: "Amsterdam", Country: "NL", Region: RegionEU, Pos: LatLon{52.37, 4.90}},
	{Name: "London", Country: "GB", Region: RegionEU, Pos: LatLon{51.51, -0.13}},
	{Name: "Manchester", Country: "GB", Region: RegionEU, Pos: LatLon{53.48, -2.24}},
	{Name: "Dublin", Country: "IE", Region: RegionEU, Pos: LatLon{53.35, -6.26}},
	{Name: "Paris", Country: "FR", Region: RegionEU, Pos: LatLon{48.86, 2.35}},
	{Name: "Marseille", Country: "FR", Region: RegionEU, Pos: LatLon{43.30, 5.37}},
	{Name: "Frankfurt", Country: "DE", Region: RegionEU, Pos: LatLon{50.11, 8.68}},
	{Name: "Berlin", Country: "DE", Region: RegionEU, Pos: LatLon{52.52, 13.41}},
	{Name: "Munich", Country: "DE", Region: RegionEU, Pos: LatLon{48.14, 11.58}},
	{Name: "Zurich", Country: "CH", Region: RegionEU, Pos: LatLon{47.38, 8.54}},
	{Name: "Vienna", Country: "AT", Region: RegionEU, Pos: LatLon{48.21, 16.37}},
	{Name: "Brussels", Country: "BE", Region: RegionEU, Pos: LatLon{50.85, 4.35}},
	{Name: "Madrid", Country: "ES", Region: RegionEU, Pos: LatLon{40.42, -3.70}},
	{Name: "Barcelona", Country: "ES", Region: RegionEU, Pos: LatLon{41.39, 2.17}},
	{Name: "Lisbon", Country: "PT", Region: RegionEU, Pos: LatLon{38.72, -9.14}},
	{Name: "Milan", Country: "IT", Region: RegionEU, Pos: LatLon{45.46, 9.19}},
	{Name: "Rome", Country: "IT", Region: RegionEU, Pos: LatLon{41.90, 12.50}},
	{Name: "Warsaw", Country: "PL", Region: RegionEU, Pos: LatLon{52.23, 21.01}},
	{Name: "Prague", Country: "CZ", Region: RegionEU, Pos: LatLon{50.08, 14.44}},
	{Name: "Budapest", Country: "HU", Region: RegionEU, Pos: LatLon{47.50, 19.04}},
	{Name: "Bucharest", Country: "RO", Region: RegionEU, Pos: LatLon{44.43, 26.10}},
	{Name: "Sofia", Country: "BG", Region: RegionEU, Pos: LatLon{42.70, 23.32}},
	{Name: "Athens", Country: "GR", Region: RegionEU, Pos: LatLon{37.98, 23.73}},
	{Name: "Kyiv", Country: "UA", Region: RegionEU, Pos: LatLon{50.45, 30.52}},
	{Name: "Moscow", Country: "RU", Region: RegionEU, Pos: LatLon{55.76, 37.62}},
	{Name: "StPetersburg", Country: "RU", Region: RegionEU, Pos: LatLon{59.93, 30.36}},
	// Siberian and far-eastern Russian cities pull the RU country
	// centroid into central Russia, which is what makes prefixes the
	// GeoIP database collapses onto it closer to Asian PoPs than to
	// European ones — the cause of Figure 3's Russian outlier cluster.
	{Name: "Novosibirsk", Country: "RU", Region: RegionAP, Pos: LatLon{55.01, 82.93}},
	{Name: "Krasnoyarsk", Country: "RU", Region: RegionAP, Pos: LatLon{56.01, 92.87}, Rare: true},
	{Name: "Irkutsk", Country: "RU", Region: RegionAP, Pos: LatLon{52.29, 104.31}, Rare: true},
	{Name: "Yakutsk", Country: "RU", Region: RegionAP, Pos: LatLon{62.03, 129.73}, Rare: true},
	{Name: "Vladivostok", Country: "RU", Region: RegionAP, Pos: LatLon{43.12, 131.89}, Rare: true},
	{Name: "Istanbul", Country: "TR", Region: RegionEU, Pos: LatLon{41.01, 28.98}},

	// North and Central America
	{Name: "NewYork", Country: "US", Region: RegionNA, Pos: LatLon{40.71, -74.01}},
	{Name: "Ashburn", Country: "US", Region: RegionNA, Pos: LatLon{39.04, -77.49}},
	{Name: "Atlanta", Country: "US", Region: RegionNA, Pos: LatLon{33.75, -84.39}},
	{Name: "Miami", Country: "US", Region: RegionNA, Pos: LatLon{25.76, -80.19}},
	{Name: "Chicago", Country: "US", Region: RegionNA, Pos: LatLon{41.88, -87.63}},
	{Name: "Dallas", Country: "US", Region: RegionNA, Pos: LatLon{32.78, -96.80}},
	{Name: "Houston", Country: "US", Region: RegionNA, Pos: LatLon{29.76, -95.37}},
	{Name: "Denver", Country: "US", Region: RegionNA, Pos: LatLon{39.74, -104.99}},
	{Name: "Phoenix", Country: "US", Region: RegionNA, Pos: LatLon{33.45, -112.07}},
	{Name: "LosAngeles", Country: "US", Region: RegionNA, Pos: LatLon{34.05, -118.24}},
	{Name: "SanJose", Country: "US", Region: RegionNA, Pos: LatLon{37.34, -121.89}},
	{Name: "Seattle", Country: "US", Region: RegionNA, Pos: LatLon{47.61, -122.33}},
	{Name: "Boston", Country: "US", Region: RegionNA, Pos: LatLon{42.36, -71.06}},
	{Name: "WashingtonDC", Country: "US", Region: RegionNA, Pos: LatLon{38.91, -77.04}},
	{Name: "Toronto", Country: "CA", Region: RegionNA, Pos: LatLon{43.65, -79.38}},
	{Name: "Montreal", Country: "CA", Region: RegionNA, Pos: LatLon{45.50, -73.57}},
	{Name: "Vancouver", Country: "CA", Region: RegionNA, Pos: LatLon{49.28, -123.12}},
	{Name: "MexicoCity", Country: "MX", Region: RegionNA, Pos: LatLon{19.43, -99.13}},
	{Name: "PanamaCity", Country: "PA", Region: RegionNA, Pos: LatLon{8.98, -79.52}},

	// Asia Pacific
	{Name: "Tokyo", Country: "JP", Region: RegionAP, Pos: LatLon{35.68, 139.69}},
	{Name: "Osaka", Country: "JP", Region: RegionAP, Pos: LatLon{34.69, 135.50}},
	{Name: "Seoul", Country: "KR", Region: RegionAP, Pos: LatLon{37.57, 126.98}},
	{Name: "HongKong", Country: "HK", Region: RegionAP, Pos: LatLon{22.32, 114.17}},
	{Name: "Taipei", Country: "TW", Region: RegionAP, Pos: LatLon{25.03, 121.57}},
	{Name: "Shanghai", Country: "CN", Region: RegionAP, Pos: LatLon{31.23, 121.47}},
	{Name: "Beijing", Country: "CN", Region: RegionAP, Pos: LatLon{39.90, 116.41}},
	{Name: "Guangzhou", Country: "CN", Region: RegionAP, Pos: LatLon{23.13, 113.26}},
	{Name: "Singapore", Country: "SG", Region: RegionAP, Pos: LatLon{1.35, 103.82}},
	{Name: "KualaLumpur", Country: "MY", Region: RegionAP, Pos: LatLon{3.14, 101.69}},
	{Name: "Jakarta", Country: "ID", Region: RegionAP, Pos: LatLon{-6.21, 106.85}},
	{Name: "Bangkok", Country: "TH", Region: RegionAP, Pos: LatLon{13.76, 100.50}},
	{Name: "Manila", Country: "PH", Region: RegionAP, Pos: LatLon{14.60, 120.98}},
	{Name: "Hanoi", Country: "VN", Region: RegionAP, Pos: LatLon{21.03, 105.85}},
	{Name: "Mumbai", Country: "IN", Region: RegionAP, Pos: LatLon{19.08, 72.88}},
	{Name: "Delhi", Country: "IN", Region: RegionAP, Pos: LatLon{28.70, 77.10}},
	{Name: "Chennai", Country: "IN", Region: RegionAP, Pos: LatLon{13.08, 80.27}},
	{Name: "Bangalore", Country: "IN", Region: RegionAP, Pos: LatLon{12.97, 77.59}},
	{Name: "Karachi", Country: "PK", Region: RegionAP, Pos: LatLon{24.86, 67.00}},
	{Name: "Dhaka", Country: "BD", Region: RegionAP, Pos: LatLon{23.81, 90.41}},
	{Name: "Colombo", Country: "LK", Region: RegionAP, Pos: LatLon{6.93, 79.85}},

	// Oceania
	{Name: "Sydney", Country: "AU", Region: RegionOC, Pos: LatLon{-33.87, 151.21}},
	{Name: "Melbourne", Country: "AU", Region: RegionOC, Pos: LatLon{-37.81, 144.96}},
	{Name: "Brisbane", Country: "AU", Region: RegionOC, Pos: LatLon{-27.47, 153.03}},
	{Name: "Perth", Country: "AU", Region: RegionOC, Pos: LatLon{-31.95, 115.86}},
	{Name: "Auckland", Country: "NZ", Region: RegionOC, Pos: LatLon{-36.85, 174.76}},
	{Name: "Wellington", Country: "NZ", Region: RegionOC, Pos: LatLon{-41.29, 174.78}},

	// South America
	{Name: "SaoPaulo", Country: "BR", Region: RegionSA, Pos: LatLon{-23.55, -46.63}},
	{Name: "RioDeJaneiro", Country: "BR", Region: RegionSA, Pos: LatLon{-22.91, -43.17}},
	{Name: "BuenosAires", Country: "AR", Region: RegionSA, Pos: LatLon{-34.60, -58.38}},
	{Name: "Santiago", Country: "CL", Region: RegionSA, Pos: LatLon{-33.45, -70.67}},
	{Name: "Bogota", Country: "CO", Region: RegionSA, Pos: LatLon{4.71, -74.07}},
	{Name: "Lima", Country: "PE", Region: RegionSA, Pos: LatLon{-12.05, -77.04}},

	// Middle East
	{Name: "Dubai", Country: "AE", Region: RegionME, Pos: LatLon{25.20, 55.27}},
	{Name: "Doha", Country: "QA", Region: RegionME, Pos: LatLon{25.29, 51.53}},
	{Name: "Riyadh", Country: "SA", Region: RegionME, Pos: LatLon{24.71, 46.68}},
	{Name: "TelAviv", Country: "IL", Region: RegionME, Pos: LatLon{32.09, 34.78}},
	{Name: "Amman", Country: "JO", Region: RegionME, Pos: LatLon{31.96, 35.95}},
	{Name: "Kuwait", Country: "KW", Region: RegionME, Pos: LatLon{29.38, 47.99}},

	// Africa
	{Name: "Cairo", Country: "EG", Region: RegionAF, Pos: LatLon{30.04, 31.24}},
	{Name: "Lagos", Country: "NG", Region: RegionAF, Pos: LatLon{6.52, 3.38}},
	{Name: "Nairobi", Country: "KE", Region: RegionAF, Pos: LatLon{-1.29, 36.82}},
	{Name: "Johannesburg", Country: "ZA", Region: RegionAF, Pos: LatLon{-26.20, 28.05}},
	{Name: "CapeTown", Country: "ZA", Region: RegionAF, Pos: LatLon{-33.92, 18.42}},
	{Name: "Casablanca", Country: "MA", Region: RegionAF, Pos: LatLon{33.57, -7.59}},
}

var placeByName = func() map[string]Place {
	m := make(map[string]Place, len(places))
	for _, p := range places {
		m[p.Name] = p
	}
	return m
}()

// MustLookup returns the catalog entry with the given name, which is
// known at compile time; it panics on a missing name, which indicates a
// programming error in the caller.
func MustLookup(name string) Place {
	p, ok := placeByName[name]
	if !ok {
		panic("geo: unknown place " + name)
	}
	return p
}

// PlacesInRegion returns the catalog entries in region r that host
// infrastructure (Rare places excluded), sorted by name.
func PlacesInRegion(r Region) []Place {
	var out []Place
	for _, p := range places {
		if p.Region == r && !p.Rare {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CountryCentroid returns the average position of catalog places in the
// given country. The GeoIP error model collapses some prefixes onto their
// country centroid, mimicking databases that know the country but not the
// city (the paper's Russian-prefix outlier cluster).
func CountryCentroid(country string) (LatLon, bool) {
	var lat, lon float64
	n := 0
	for _, p := range places {
		if p.Country == country {
			lat += p.Pos.Lat
			lon += p.Pos.Lon
			n++
		}
	}
	if n == 0 {
		return LatLon{}, false
	}
	return LatLon{Lat: lat / float64(n), Lon: lon / float64(n)}, true
}
