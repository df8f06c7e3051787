package rules

import (
	"encoding/xml"
	"fmt"

	"qtrtest/internal/logical"
)

// The paper extends the database server "with an API through which it
// returns the rule pattern tree for a rule in a XML format" (§3.1). This
// file is that API: patterns serialize to and parse from XML, so an external
// query generator can consume them without linking against the optimizer.

// xmlPattern is the wire form of a Pattern.
type xmlPattern struct {
	XMLName  xml.Name     `xml:"pattern"`
	Op       string       `xml:"op,attr"`
	Children []xmlPattern `xml:"pattern"`
}

// xmlRule is the wire form of one rule's metadata.
type xmlRule struct {
	XMLName xml.Name   `xml:"rule"`
	ID      int        `xml:"id,attr"`
	Name    string     `xml:"name,attr"`
	Kind    string     `xml:"kind,attr"`
	Pattern xmlPattern `xml:"pattern"`
}

// xmlRuleSet is the wire form of a registry export.
type xmlRuleSet struct {
	XMLName xml.Name  `xml:"ruleset"`
	Rules   []xmlRule `xml:"rule"`
}

func toXMLPattern(p *Pattern) xmlPattern {
	out := xmlPattern{Op: p.Op.String()}
	for _, c := range p.Children {
		out.Children = append(out.Children, toXMLPattern(c))
	}
	return out
}

var opByName = map[string]logical.Op{
	"Any": logical.OpAny, "Get": logical.OpGet, "Select": logical.OpSelect,
	"Project": logical.OpProject, "Join": logical.OpJoin,
	"LeftJoin": logical.OpLeftJoin, "SemiJoin": logical.OpSemiJoin,
	"AntiJoin": logical.OpAntiJoin, "GroupBy": logical.OpGroupBy,
	"UnionAll": logical.OpUnionAll, "Limit": logical.OpLimit,
	"Sort": logical.OpSort,
}

func fromXMLPattern(x xmlPattern) (*Pattern, error) {
	op, ok := opByName[x.Op]
	if !ok {
		return nil, fmt.Errorf("rules: unknown operator %q in pattern XML", x.Op)
	}
	p := &Pattern{Op: op}
	for _, c := range x.Children {
		child, err := fromXMLPattern(c)
		if err != nil {
			return nil, err
		}
		p.Children = append(p.Children, child)
	}
	return p, nil
}

// PatternXML serializes a single pattern.
func PatternXML(p *Pattern) ([]byte, error) {
	return xml.MarshalIndent(toXMLPattern(p), "", "  ")
}

// ParsePatternXML parses a pattern produced by PatternXML.
func ParsePatternXML(data []byte) (*Pattern, error) {
	var x xmlPattern
	if err := xml.Unmarshal(data, &x); err != nil {
		return nil, fmt.Errorf("rules: parsing pattern XML: %w", err)
	}
	return fromXMLPattern(x)
}

// ExportXML serializes every rule in the registry (id, name, kind, pattern).
func (r *Registry) ExportXML() ([]byte, error) {
	var set xmlRuleSet
	for _, rule := range r.All() {
		set.Rules = append(set.Rules, xmlRule{
			ID:      int(rule.ID()),
			Name:    rule.Name(),
			Kind:    rule.Kind().String(),
			Pattern: toXMLPattern(rule.Pattern()),
		})
	}
	return xml.MarshalIndent(set, "", "  ")
}

// ExportedRule is the parsed form of one rule from an XML export: everything
// an external query generator needs.
type ExportedRule struct {
	ID      ID
	Name    string
	Kind    Kind
	Pattern *Pattern
}

// ParseExportXML parses a registry export produced by ExportXML.
func ParseExportXML(data []byte) ([]ExportedRule, error) {
	var set xmlRuleSet
	if err := xml.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("rules: parsing ruleset XML: %w", err)
	}
	out := make([]ExportedRule, 0, len(set.Rules))
	for _, xr := range set.Rules {
		p, err := fromXMLPattern(xr.Pattern)
		if err != nil {
			return nil, err
		}
		var kind Kind
		switch xr.Kind {
		case KindExploration.String():
			kind = KindExploration
		case KindImplementation.String():
			kind = KindImplementation
		default:
			return nil, fmt.Errorf("rules: rule %d has kind %q, want %q or %q", xr.ID, xr.Kind, KindExploration, KindImplementation)
		}
		out = append(out, ExportedRule{ID: ID(xr.ID), Name: xr.Name, Kind: kind, Pattern: p})
	}
	return out, nil
}
