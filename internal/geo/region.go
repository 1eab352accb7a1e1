package geo

// Region is one of the world regions the paper divides traffic into.
// Figure 7 uses seven origin regions (Oceania, Asia Pacific, Middle East,
// Africa, Europe, North & Central America, South America) and four PoP
// regions (EU, US, AP, OC).
type Region uint8

const (
	RegionUnknown Region = iota
	RegionEU             // Europe
	RegionNA             // North and Central America
	RegionAP             // Asia Pacific
	RegionOC             // Oceania
	RegionSA             // South America
	RegionME             // Middle East
	RegionAF             // Africa
)

var regionNames = [...]string{
	RegionUnknown: "??",
	RegionEU:      "EU",
	RegionNA:      "NA",
	RegionAP:      "AP",
	RegionOC:      "OC",
	RegionSA:      "SA",
	RegionME:      "ME",
	RegionAF:      "AF",
}

func (r Region) String() string {
	if int(r) < len(regionNames) {
		return regionNames[r]
	}
	return "??"
}

// Regions lists all seven populated regions in display order.
func Regions() []Region {
	return []Region{RegionOC, RegionAP, RegionME, RegionAF, RegionEU, RegionNA, RegionSA}
}

// PoPRegion collapses the seven traffic regions onto the four PoP regions:
// the Middle East and Africa are served from Europe, South America from
// North America, matching how the deployed network anycast catchments
// fall in Figure 7.
func PoPRegion(r Region) Region {
	switch r {
	case RegionME, RegionAF:
		return RegionEU
	case RegionSA:
		return RegionNA
	case RegionUnknown:
		return RegionEU
	default:
		return r
	}
}
